(* Per-layer measurement for the traced run: registry deltas, span
   self times read with [Telemetry.Analyze.self_by_name], and the
   probes that time one layer directly. *)

open Perfbench_core
module Json = Telemetry.Json
module Analyze = Telemetry.Analyze

let now = Clock.now

(* ------------------------------------------------------------------ *)
(* Registry snapshots (in-process, or a daemon's /metrics)             *)
(* ------------------------------------------------------------------ *)

type snap = Daemon.snap = {
  counters : (string * int) list;
  hists : (string * (int * float)) list;  (* count, sum *)
}

let snap () =
  { counters = Telemetry.Metrics.counters ();
    hists =
      List.map
        (fun (k, h) ->
          (k, (Telemetry.Histogram.count h, Telemetry.Histogram.sum h)))
        (Telemetry.Metrics.histograms ());
  }

let counter s name = Option.value ~default:0 (List.assoc_opt name s.counters)
let delta a b name = counter b name - counter a name

let hist_delta a b name =
  let get s = Option.value ~default:(0, 0.) (List.assoc_opt name s.hists) in
  let c0, s0 = get a and c1, s1 = get b in
  (c1 - c0, s1 -. s0)

let hist_mean a b name =
  let c, s = hist_delta a b name in
  if c = 0 then None else Some (s /. float_of_int c)

(* Summed deltas of every counter named [memo.<table>.<kind>]. *)
let memo_delta a b kind =
  List.fold_left
    (fun acc (name, _) ->
      if String.starts_with ~prefix:"memo." name
         && String.ends_with ~suffix:("." ^ kind) name
      then acc + delta a b name
      else acc)
    0 b.counters

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* The LP and memo counters of one window, per op. *)
type counts = {
  ops : int;
  solves : int;
  pivots : int;
  warm : int;
  row_ops : int;
  assignment_pivots : int;
  memo_hits : int;
  memo_misses : int;
}

let counts ~ops a b =
  { ops;
    solves = delta a b "linprog.solves";
    pivots = delta a b "linprog.pivots";
    warm = delta a b "linprog.warm_solves";
    row_ops = delta a b "linprog.kernel_row_ops";
    assignment_pivots = delta a b "network.assignment_pivots";
    memo_hits = memo_delta a b "hits";
    memo_misses = memo_delta a b "misses";
  }

(* Pool utilisation, read as sum/count from the engine.pool histograms
   (never as bucket percentiles); [None] when no parallel map ran. *)
type pool = {
  busy_share : float;
  idle_share : float;
  queue_wait_ms : float;
  imbalance : float;
}

let pool a b =
  let _, busy = hist_delta a b "engine.pool.busy_seconds"
  and n, idle = hist_delta a b "engine.pool.idle_seconds" in
  if n = 0 || busy +. idle <= 0. then None
  else
    Some
      { busy_share = busy /. (busy +. idle);
        idle_share = idle /. (busy +. idle);
        queue_wait_ms =
          1e3
          *. Option.value ~default:0.
               (hist_mean a b "engine.pool.queue_wait_seconds");
        imbalance =
          Option.value ~default:1. (hist_mean a b "engine.pool.chunk_imbalance");
      }

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type spans = {
  self : (string, float) Hashtbl.t;  (* summed self seconds per name *)
  dur : (string, float) Hashtbl.t;   (* summed duration per name *)
  count : (string, int) Hashtbl.t;   (* instances per name *)
  mutable ops : int;
  mutable residue : float;           (* summed per-op residue shares *)
  mutable op_seconds : float list;   (* traced op wall times *)
}

let spans () =
  { self = Hashtbl.create 64;
    dur = Hashtbl.create 64;
    count = Hashtbl.create 64;
    ops = 0;
    residue = 0.;
    op_seconds = [];
  }

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(* The benchmark's own spans that stand for no layer: the op root and
   the wrapper around each artifact call. Their self time is op time no
   program span accounts for, so it is the residue. Every other [bench.*]
   span wraps one call into a layer (a render, a memo clear, an HTTP
   parse) and counts as that layer's time. *)
let is_residue name =
  name = "bench.op" || String.starts_with ~prefix:"bench.eval." name

(* Run one op with every span the program records switched on, under
   the benchmark's own [bench.op] root span, and fold the op's trace
   into [acc]. The trace is analysed after the op's clock stops. *)
let traced acc f =
  Telemetry.Span.start ();
  let t0 = now () in
  let r = Telemetry.Span.with_span ~cat:"bench" "bench.op" f in
  let dt = now () -. t0 in
  Telemetry.Span.stop ();
  let a = Analyze.analyze (Telemetry.Span.events ()) in
  let residue = ref 0. in
  List.iter
    (fun (name, self, n) ->
      bump acc.self name self;
      if is_residue name then residue := !residue +. self;
      Hashtbl.replace acc.count name
        (n + Option.value ~default:0 (Hashtbl.find_opt acc.count name)))
    (Analyze.self_by_name a);
  List.iter
    (fun (nd : Analyze.node) ->
      bump acc.dur nd.event.name nd.event.dur;
      if nd.path = [ "bench.op" ] && nd.event.dur > 0. then
        acc.residue <- acc.residue +. (!residue /. nd.event.dur))
    (Analyze.nodes a);
  acc.ops <- acc.ops + 1;
  acc.op_seconds <- dt :: acc.op_seconds;
  (r, dt)

let self_ms acc names =
  let s =
    List.fold_left
      (fun s n -> s +. Option.value ~default:0. (Hashtbl.find_opt acc.self n))
      0. names
  in
  if acc.ops = 0 then 0. else 1e3 *. s /. float_of_int acc.ops

(* Mean duration of one instance of the span, in ms. *)
let mean_ms acc name =
  match Hashtbl.find_opt acc.count name with
  | Some n when n > 0 -> 1e3 *. Hashtbl.find acc.dur name /. float_of_int n
  | _ -> 0.

let residue_share acc =
  if acc.ops = 0 then 0. else acc.residue /. float_of_int acc.ops

(* ------------------------------------------------------------------ *)
(* Probes: one layer timed directly                                    *)
(* ------------------------------------------------------------------ *)

let median_of f reps = Stats.median (Array.init reps (fun _ -> f ()))

(* A warm [Solver.reoptimize_into] on the production TDBC LP across a
   129-weight sweep; median over sweeps of the time per solve. *)
let reoptimize_ns () =
  let scenario =
    Bidir.Gaussian.scenario ~power_db:10. ~gains:Channel.Gains.paper_fig4
  in
  let bound = Bidir.Gaussian.bounds Bidir.Protocol.Tdbc Bidir.Bound.Inner scenario in
  let nvars, constrs = Bidir.Rate_region.lp_constraints bound in
  let weights = 129 in
  let objectives =
    Array.init weights (fun i ->
        let w = float_of_int i /. float_of_int (weights - 1) in
        let c = Array.make nvars 0. in
        c.(0) <- w;
        c.(1) <- 1. -. w;
        c)
  in
  let solver = Linprog.Solver.create ~nvars ~constrs in
  let x = Array.make (nvars + 1) 0. in
  let sweep () =
    let t0 = now () in
    Array.iter
      (fun c ->
        match Linprog.Solver.reoptimize_into solver ~c ~x with
        | Linprog.Solver.Optimal -> ()
        | Linprog.Solver.Unbounded | Linprog.Solver.Infeasible ->
          failwith "reoptimize probe: production LP not optimal")
      objectives;
    (now () -. t0) /. float_of_int weights
  in
  ignore (sweep () : float);
  1e9 *. median_of sweep 300

(* Cold [Rate_region.boundary] over the three relay protocols at the
   Fig. 4 gains and two powers: time per boundary call (median over
   repeats) and LP solves per call (exact). *)
let region_probe () =
  let bounds =
    List.concat_map
      (fun power_db ->
        let s =
          Bidir.Gaussian.scenario ~power_db ~gains:Channel.Gains.paper_fig4
        in
        List.map
          (fun p -> Bidir.Gaussian.bounds p Bidir.Bound.Inner s)
          Bidir.Protocol.[ Mabc; Tdbc; Hbc ])
      [ 0.; 10. ]
  in
  let nb = List.length bounds in
  let pass () =
    Engine.Memo.clear_all ();
    let s0 = counter (snap ()) "linprog.solves" in
    let t0 = now () in
    List.iter (fun b -> ignore (Bidir.Rate_region.boundary b : _ list)) bounds;
    let dt = now () -. t0 in
    (dt, counter (snap ()) "linprog.solves" - s0)
  in
  let runs = Array.init 15 (fun _ -> pass ()) in
  let ms = Stats.median (Array.map (fun (dt, _) -> 1e3 *. dt) runs) /. float_of_int nb in
  let lps = float_of_int (snd runs.(0)) /. float_of_int nb in
  (ms, lps)

(* ------------------------------------------------------------------ *)
(* serve: request bytes replayed in-process through each layer         *)
(* ------------------------------------------------------------------ *)

type decoded = { req : Serve.Http.request; query : Serve.Query.t }

let parse bytes =
  match Serve.Http.parse bytes with
  | Serve.Http.Complete (r, _) -> r
  | _ -> failwith "replay: request does not parse"

(* The daemon's routing, reduced to the query endpoints this benchmark
   sends. *)
let decode (r : Serve.Http.request) =
  let q =
    if r.path = "/v1/query" then
      match Json.parse r.body with
      | Ok j -> Serve.Query.of_json j
      | Error e -> Error e
    else
      let kind = String.sub r.path 4 (String.length r.path - 4) in
      Serve.Query.of_params ~kind r.params
  in
  match q with Ok query -> { req = r; query } | Error e -> failwith ("replay: " ^ e)

let respond d = List.hd (Serve.Service.respond_batch [ d.query ])

let handle bytes =
  let d = Workloads.span "bench.http.parse" (fun () -> parse bytes) in
  let d = Workloads.span "bench.query.decode" (fun () -> decode d) in
  let body = Workloads.span "bench.service.respond" (fun () -> respond d) in
  Workloads.span "bench.http.response" (fun () -> Serve.Http.response body)

type stages = {
  parse_us : float;
  decode_us : float;
  hit_us : float;
  miss_us : float;
  response_us : float;
}

(* Time each stage as a pass over every request (mean per request,
   median over repeated passes). Misses are timed over the distinct
   queries on emptied caches, hits on the filled response cache. *)
let stages (reqs : string array) =
  let n = float_of_int (Array.length reqs) in
  let per_req f =
    let t0 = now () in
    f ();
    1e6 *. (now () -. t0) /. n
  in
  let parsed = Array.map parse reqs in
  let decoded = Array.map decode parsed in
  let parse_us = median_of (fun () -> per_req (fun () -> Array.iter (fun b -> ignore (parse b)) reqs)) 5 in
  let decode_us = median_of (fun () -> per_req (fun () -> Array.iter (fun r -> ignore (decode r)) parsed)) 5 in
  let seen = Hashtbl.create 64 in
  let distinct =
    List.filter
      (fun d ->
        let k = Serve.Query.key d.query in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      (Array.to_list decoded)
  in
  Engine.Memo.clear_all ();
  let t0 = now () in
  List.iter (fun d -> ignore (respond d)) distinct;
  let miss_us = 1e6 *. (now () -. t0) /. float_of_int (List.length distinct) in
  let bodies = Array.map respond decoded in
  let hit_us = median_of (fun () -> per_req (fun () -> Array.iter (fun d -> ignore (respond d)) decoded)) 5 in
  let response_us =
    median_of (fun () -> per_req (fun () -> Array.iter (fun b -> ignore (Serve.Http.response b)) bodies)) 5
  in
  { parse_us; decode_us; hit_us; miss_us; response_us }
