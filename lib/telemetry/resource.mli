(** GC and allocation accounting for resource attribution.

    Probes read the runtime's own monotone counters ([Gc.quick_stat],
    [Gc.minor_words], [Gc.counters]) — no heap walk, so a sample costs tens of
    nanoseconds — but all call sites are still gated behind {!enabled}
    so the layer is a single atomic load and branch while it stays off
    (the same contract as {!Span}).

    Tracking is observation-only: enabling it never changes computed
    results, only what gets recorded. With tracking on, {!Span.with_span}
    attaches a per-span delta ([gc.minor_words], [gc.major_collections],
    [gc.alloc_bytes], …) to each recorded event, LP entry points
    aggregate [linprog.alloc_bytes], and {!account} folds a scope's
    totals into the process-wide [gc.*] registry counters.

    Per-span deltas overlap (a parent's delta includes its children's),
    so only {!account} — intended to wrap a command's workload exactly
    once — feeds the global counters; span deltas stay on the events. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run the thunk with tracking forced on/off, restoring the previous
    state afterwards (also on exceptions). *)

type sample
(** An opaque point-in-time reading of the current domain's GC state. *)

val sample : unit -> sample

type delta = {
  minor_words : float;        (** words allocated in the minor heap *)
  major_words : float;        (** words allocated directly on the major heap *)
  minor_collections : int;
  major_collections : int;    (** completed major cycles *)
  alloc_bytes : float;
      (** allocation on the {!alloc_mark_begin} scale: 1 per minor word,
          8 per word allocated on the major heap; a collection in
          between does not move it *)
}

val delta_since : sample -> delta
(** Consumption between the sample and now; every field is clamped at
    zero. Readings are per-domain in OCaml 5, so pair sample and delta
    on the same domain. *)

val measure : (unit -> 'a) -> 'a * delta
(** [measure f] runs [f] and returns its result together with the GC
    delta across the call. Unconditional — does not consult {!enabled}. *)

val alloc_mark_begin : unit -> float
val alloc_mark_end : unit -> float
(** Allocation marks for [linprog.alloc_bytes] and the [alloc_bytes]
    of a {!delta}: [alloc_mark_end () -.
    b0] with [b0 = alloc_mark_begin ()] is the allocation between the
    two, counting a minor-heap word as 1 and a major-heap word as 8 —
    what [Gc.allocated_bytes] reads on OCaml 5.1 between collections —
    but without the jump [Gc.allocated_bytes] makes when a minor
    collection runs in between. Current domain only. Unconditional;
    callers gate on {!enabled}. *)

val account : (unit -> 'a) -> 'a
(** Run the thunk and fold its GC delta into the registry counters
    [gc.minor_words], [gc.minor_collections], [gc.major_collections]
    and [gc.alloc_bytes] (also on exceptions). The counters are
    registered at module initialisation, so they appear (as 0) in every
    metrics dump. Unconditional; callers gate on {!enabled}. *)

val span_args : delta -> (string * Json.t) list
(** Render a delta as span-event arguments ([gc.minor_words], …). *)
