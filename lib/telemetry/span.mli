(** Hierarchical wall-clock spans with domain-local span stacks.

    Tracing is globally off by default and {!with_span} costs a single
    atomic load and branch while it stays off — instrumentation can be
    left permanently in hot paths. When tracing is on, each span records
    its name, category, start offset (relative to {!start}), duration,
    the id of the domain it ran on, and the name of its parent span —
    the innermost enclosing span *on the same logical context*, which is
    maintained in a [Domain.DLS] stack.

    A parallel pool propagates the logical hierarchy across domains by
    capturing {!context} before fanning out and installing it with
    {!with_context} inside each worker task; spans the task opens then
    report the span that launched the fan-out as their parent, even
    though they ran on a different domain. *)

type event = {
  name : string;
  cat : string;           (** coarse grouping: "lp", "pool", "figures"… *)
  ts : float;             (** seconds since {!start} *)
  dur : float;            (** wall-clock seconds *)
  tid : int;              (** id of the domain the span ran on *)
  parent : string;        (** name of the enclosing span, [""] at root *)
  args : (string * Json.t) list;
}

val enabled : unit -> bool

val start : unit -> unit
(** Drop previously collected events, restart the trace clock and turn
    collection on. *)

val stop : unit -> unit
(** Turn collection off; collected events remain readable. *)

val with_span :
  ?cat:string -> ?args:(string * Json.t) list -> string ->
  (unit -> 'a) -> 'a
(** [with_span name f] runs [f ()]; when tracing is on, it pushes [name]
    onto this domain's span stack for the duration and records one event
    (also when [f] raises). When tracing is off it is [f ()]. When
    {!Resource.enabled} also holds, the event's [args] additionally carry
    the span's GC delta ([gc.minor_words], [gc.major_collections],
    [gc.alloc_bytes], …); note that a parent span's delta includes its
    children's. *)

val context : unit -> string list
(** This domain's current span stack, innermost first. *)

val with_context : string list -> (unit -> 'a) -> 'a
(** Run the thunk with the span stack replaced by the given context
    (restored afterwards, also on exceptions). Used to carry a logical
    parent across domain boundaries. *)

val events : unit -> event list
(** Collected events sorted by start time (ties by duration then name),
    so the listing is stable for a fixed set of spans. *)
