(** Engine instrumentation: global (process-wide) counters for LP
    solves, cache hits/misses and pool tasks, plus accumulated wall
    time per named phase. All counters are atomic and safe to update
    from any domain.

    This module is a view over {!Telemetry.Metrics}: the pool counter
    is registered under [engine.*], the LP figures are read from the LP
    layer's own [linprog.*], the cache figures are the sums of the
    [memo.<table>.*] counters of {!Memo}, phase timers are histograms under [phase.<label>] (so [--metrics]
    exports them with percentiles), and {!reset} resets the whole
    registry. The snapshot/[to_string] surface and output format are
    unchanged. *)

type histogram_line = {
  h_name : string;
  h_count : int;
  h_p50 : float;
  h_p99 : float;
}
(** Percentile summary of one well-known histogram, shown in the
    [--stats] block so the common distributions are visible without
    [--metrics]. *)

type snapshot = {
  lp_solves : int;
      (** LPs solved, by either engine ([linprog.solves]; feasibility
          probes included) *)
  lp_pivots : int;       (** simplex pivot iterations across all solves *)
  lp_warm_solves : int;
      (** solves the warm-start engine answered from a previous basis *)
  lp_phase1_skipped : int;
      (** warm solves that needed no phase-1 work at all *)
  cache_hits : int;
      (** memo lookups answered without solving: the sum of every
          [memo.<table>.hits] counter *)
  cache_misses : int;
      (** memo lookups that had to compute: the sum of every
          [memo.<table>.misses] counter *)
  pool_tasks : int;      (** items dispatched through parallel pool maps *)
  gc_minor_words : int;
      (** minor-heap words allocated while resource tracking was on *)
  gc_major_collections : int;
      (** major GC cycles completed while resource tracking was on *)
  lp_alloc_bytes : int;
      (** bytes allocated inside LP entry points (resource tracking on);
          divided by [lp_solves] this is the per-solve footprint *)
  phases : (string * float) list;
      (** accumulated wall-clock seconds per phase label, sorted by label *)
  summaries : histogram_line list;
      (** p50/p99 of [lp.solve_seconds] and [netsim.queue_depth], when
          they have samples *)
}

val record_pool_tasks : int -> unit

val timed : string -> (unit -> 'a) -> 'a
(** [timed label f] runs [f ()] and adds its wall-clock duration to the
    accumulator for [label] (created on first use). Re-entrant; safe
    from any domain. *)

val snapshot : unit -> snapshot
(** Consistent read of all counters. *)

val reset : unit -> unit
(** Zero every counter and phase accumulator (resets the whole
    {!Telemetry.Metrics} registry, which these live in). *)

val to_string : snapshot -> string
(** Multi-line human-readable rendering (used by the CLI [--stats]
    flag), hit rate included. *)
