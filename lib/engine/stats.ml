(* Thin view over the telemetry metrics registry: the engine's historic
   counters are ordinary registered counters, and phase timers are
   registered histograms under "phase.<label>". The snapshot/to_string
   API (and its output format) is unchanged from the pre-telemetry
   implementation, so callers of --stats see the same block. *)

type histogram_line = {
  h_name : string;
  h_count : int;
  h_p50 : float;
  h_p99 : float;
}

type snapshot = {
  lp_solves : int;
  lp_pivots : int;
  lp_warm_solves : int;
  lp_phase1_skipped : int;
  cache_hits : int;
  cache_misses : int;
  pool_tasks : int;
  gc_minor_words : int;
  gc_major_collections : int;
  lp_alloc_bytes : int;
  phases : (string * float) list;
  summaries : histogram_line list;
}

let pool_tasks = Telemetry.Metrics.counter "engine.pool_tasks"

(* Owned and written by the LP layer ([Linprog.Solver]); the registry
   hands back the same handles, so the snapshot can surface the solve
   count and pivot budget without a dependency edge. *)
let lp_solves = Telemetry.Metrics.counter "linprog.solves"
let lp_pivots = Telemetry.Metrics.counter "linprog.pivots"
let lp_warm_solves = Telemetry.Metrics.counter "linprog.warm_solves"
let lp_phase1_skipped = Telemetry.Metrics.counter "linprog.phase1_skipped"

(* Owned by Telemetry.Resource / the LP layer; populated only while
   resource tracking is enabled (--resource, profile, check). *)
let gc_minor_words = Telemetry.Metrics.counter "gc.minor_words"
let gc_major_collections = Telemetry.Metrics.counter "gc.major_collections"
let lp_alloc_bytes = Telemetry.Metrics.counter "linprog.alloc_bytes"

let record_pool_tasks n = Telemetry.Metrics.add pool_tasks n

let phase_prefix = "phase."

let timed label f =
  Telemetry.Metrics.time
    (Telemetry.Metrics.histogram (phase_prefix ^ label))
    f

(* Histograms surfaced in the --stats block without needing --metrics:
   the two every regression hunt starts from. *)
let summary_histograms = [ "lp.solve_seconds"; "netsim.queue_depth" ]

(* Summed [memo.<table>.<kind>] counters: every named memo table
   counts its own lookups, so the totals are derived, not recounted. *)
let memo_total kind =
  let suffix = "." ^ kind in
  List.fold_left
    (fun acc (name, v) ->
      if String.starts_with ~prefix:"memo." name
         && String.ends_with ~suffix name
      then acc + v
      else acc)
    0
    (Telemetry.Metrics.counters ())

let snapshot () =
  let plen = String.length phase_prefix in
  let phases =
    List.filter_map
      (fun (name, h) ->
        if
          String.length name > plen
          && String.sub name 0 plen = phase_prefix
          && Telemetry.Histogram.count h > 0
        then
          Some
            (String.sub name plen (String.length name - plen),
             Telemetry.Histogram.sum h)
        else None)
      (Telemetry.Metrics.histograms ())
  in
  let summaries =
    List.filter_map
      (fun (name, h) ->
        if List.mem name summary_histograms && Telemetry.Histogram.count h > 0
        then
          let p50, _, p99 = Telemetry.Histogram.percentiles h in
          Some
            { h_name = name;
              h_count = Telemetry.Histogram.count h;
              h_p50 = p50;
              h_p99 = p99;
            }
        else None)
      (Telemetry.Metrics.histograms ())
  in
  { lp_solves = Telemetry.Metrics.value lp_solves;
    lp_pivots = Telemetry.Metrics.value lp_pivots;
    lp_warm_solves = Telemetry.Metrics.value lp_warm_solves;
    lp_phase1_skipped = Telemetry.Metrics.value lp_phase1_skipped;
    cache_hits = memo_total "hits";
    cache_misses = memo_total "misses";
    pool_tasks = Telemetry.Metrics.value pool_tasks;
    gc_minor_words = Telemetry.Metrics.value gc_minor_words;
    gc_major_collections = Telemetry.Metrics.value gc_major_collections;
    lp_alloc_bytes = Telemetry.Metrics.value lp_alloc_bytes;
    phases;
    summaries;
  }

let reset () = Telemetry.Metrics.reset ()

let hit_rate s =
  let total = s.cache_hits + s.cache_misses in
  if total = 0 then 0. else float_of_int s.cache_hits /. float_of_int total

let to_string s =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "engine stats: %d LP solves, %d cache hits / %d misses (%.1f%% hit \
     rate), %d pool tasks\n"
    s.lp_solves s.cache_hits s.cache_misses
    (100. *. hit_rate s)
    s.pool_tasks;
  if s.lp_pivots > 0 then
    Printf.bprintf b
      "  linprog: %d pivots total, %d warm solves, %d phase-1 skips\n"
      s.lp_pivots s.lp_warm_solves s.lp_phase1_skipped;
  if s.gc_minor_words > 0 || s.lp_alloc_bytes > 0 then begin
    Printf.bprintf b
      "  resource: %d minor words, %d major collections"
      s.gc_minor_words s.gc_major_collections;
    if s.lp_alloc_bytes > 0 && s.lp_solves > 0 then
      Printf.bprintf b ", %d LP alloc bytes (%.0f/solve)" s.lp_alloc_bytes
        (float_of_int s.lp_alloc_bytes /. float_of_int s.lp_solves)
    else if s.lp_alloc_bytes > 0 then
      Printf.bprintf b ", %d LP alloc bytes" s.lp_alloc_bytes;
    Buffer.add_char b '\n'
  end;
  List.iter
    (fun (label, t) ->
      Printf.bprintf b "  phase %-28s %8.1f ms\n" label (1000. *. t))
    s.phases;
  List.iter
    (fun l ->
      Printf.bprintf b "  %-34s count=%d p50=%.3g p99=%.3g\n" l.h_name
        l.h_count l.h_p50 l.h_p99)
    s.summaries;
  Buffer.contents b
