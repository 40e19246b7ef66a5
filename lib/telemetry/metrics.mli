(** Process-wide registry of named counters and histograms.

    Lookup-or-create is serialised by a mutex; the returned handles are
    lock-free to update, so the intended pattern is to resolve handles
    once (at module initialisation or per phase) and update them on the
    hot path. Names are dotted paths ([lp.solve_seconds],
    [memo.optimize.sum_rate.hits]); snapshots render them sorted, so
    output is deterministic. *)

type counter

val counter : string -> counter
(** Get or create the counter registered under this name. Raises
    [Invalid_argument] when the name is already a histogram. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val histogram :
  ?lo:float -> ?growth:float -> ?buckets:int -> string -> Histogram.t
(** Get or create a histogram (geometry arguments as
    {!Histogram.create}; they apply only on first creation). Raises
    [Invalid_argument] when the name is already a counter. *)

val observe : Histogram.t -> float -> unit

val observe_int : Histogram.t -> int -> unit
(** Allocation-free integer observation — see
    {!Histogram.observe_int}. *)

val time : Histogram.t -> (unit -> 'a) -> 'a
(** Run the thunk and observe its wall-clock duration in seconds (also
    on exceptions). *)

val counters : unit -> (string * int) list
(** Name-sorted snapshot of every registered counter. *)

val histograms : unit -> (string * Histogram.t) list
(** Name-sorted; the histograms are the live registered instances. *)

val reset : unit -> unit
(** Zero every counter and reset every histogram. Registrations (and
    handles already held by callers) stay valid. *)

val to_json : unit -> Json.t
(** [{ "counters": {...}, "histograms": {...} }], names sorted. *)

val to_text : unit -> string
(** Human-readable dump: one line per counter, one per histogram with
    count/mean/p50/p90/p99. *)
