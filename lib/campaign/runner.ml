type observation = {
  values : (string * float) list;
  counts : (string * int) list;
}

type workload = {
  name : string;
  replicate : rep:int -> rng:Prob.Rng.t -> observation;
}

type progress = {
  completed : int;
  target : int;
  elapsed_seconds : float;
  rate : float;
  max_half_width : float option;
  ci_target : float option;
  eta_seconds : float option;
}

type config = {
  seed : int;
  replications : int;
  domains : int;
  batch : int;
  checkpoint : string option;
  resume : bool;
  ci_target : float option;
  on_progress : (progress -> unit) option;
}

let default_config ?(seed = 42) ?(domains = 1) ?(batch = 32) ?checkpoint
    ?(resume = false) ?ci_target ?on_progress ~replications () =
  { seed; replications; domains; batch; checkpoint; resume; ci_target;
    on_progress }

type summary = {
  count : int;
  mean : float;
  ci95 : float * float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type result = {
  workload : string;
  seed : int;
  target : int;
  completed : int;
  stopped_early : bool;
  values : (string * summary) list;
  counters : (string * int) list;
}

(* ------------------------------------------------------------------ *)
(* Accumulators                                                        *)
(* ------------------------------------------------------------------ *)

(* one per value metric; merged strictly in replication order so the
   float additions happen in the same sequence whatever the domain
   count *)
type value_acc = {
  mutable n : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable lo : float;
  mutable hi : float;
  hist : Telemetry.Histogram.t;
}

type state = {
  value_accs : (string, value_acc) Hashtbl.t;
  count_accs : (string, int ref) Hashtbl.t;
  mutable completed : int;
}

let fresh_state () =
  { value_accs = Hashtbl.create 8;
    count_accs = Hashtbl.create 8;
    completed = 0;
  }

let value_acc_for st name =
  match Hashtbl.find_opt st.value_accs name with
  | Some a -> a
  | None ->
    let a =
      { n = 0; sum = 0.; sumsq = 0.; lo = infinity; hi = neg_infinity;
        (* finer buckets than the wall-time default: campaign value
           metrics (rates, delays, queue depths) often spread only a
           few percent, and the reported p50/p90/p99 should resolve
           that. Sparse serialisation keeps checkpoints small. *)
        hist = Telemetry.Histogram.create ~lo:1e-6 ~growth:1.02
                 ~buckets:1_400 ();
      }
    in
    Hashtbl.add st.value_accs name a;
    a

let observe_value st name v =
  let a = value_acc_for st name in
  a.n <- a.n + 1;
  a.sum <- a.sum +. v;
  a.sumsq <- a.sumsq +. (v *. v);
  if v < a.lo then a.lo <- v;
  if v > a.hi then a.hi <- v;
  Telemetry.Histogram.observe a.hist v

let observe_count st name v =
  match Hashtbl.find_opt st.count_accs name with
  | Some r -> r := !r + v
  | None -> Hashtbl.add st.count_accs name (ref v)

let accumulate st (obs : observation) =
  List.iter (fun (name, v) -> observe_value st name v) obs.values;
  List.iter (fun (name, v) -> observe_count st name v) obs.counts;
  st.completed <- st.completed + 1

let half_width a =
  if a.n < 2 then infinity
  else
    let fn = float_of_int a.n in
    let var = Float.max 0. ((a.sumsq -. (a.sum *. a.sum /. fn)) /. (fn -. 1.)) in
    1.96 *. sqrt (var /. fn)

let summary_of_acc a =
  let mean = if a.n = 0 then 0. else a.sum /. float_of_int a.n in
  let half = if a.n < 2 then 0. else half_width a in
  let p50, p90, p99 = Telemetry.Histogram.percentiles a.hist in
  { count = a.n;
    mean;
    ci95 = (mean -. half, mean +. half);
    min = (if a.n = 0 then 0. else a.lo);
    max = (if a.n = 0 then 0. else a.hi);
    p50;
    p90;
    p99;
  }

let sorted_bindings tbl extract =
  Hashtbl.fold (fun k v acc -> (k, extract v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

let schema = "bidir-campaign-checkpoint/1"

let checkpoint_json w (cfg : config) st =
  let open Telemetry.Json in
  let values =
    sorted_bindings st.value_accs (fun a ->
        Obj
          [ ("count", Int a.n);
            ("sum", Float a.sum);
            ("sumsq", Float a.sumsq);
            ("min", Float (if a.n = 0 then 0. else a.lo));
            ("max", Float (if a.n = 0 then 0. else a.hi));
            ("hist", Telemetry.Histogram.to_json_state a.hist);
          ])
  in
  let counts = sorted_bindings st.count_accs (fun r -> Int !r) in
  Obj
    [ ("schema", String schema);
      ("workload", String w.name);
      ("seed", Int cfg.seed);
      ("completed", Int st.completed);
      ("values", Obj values);
      ("counts", Obj counts);
    ]

let write_checkpoint path w cfg st =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Telemetry.Json.to_string_pretty (checkpoint_json w cfg st));
      output_char oc '\n');
  Sys.rename tmp path

let fail fmt = Printf.ksprintf invalid_arg fmt

let get_field path name json =
  match Telemetry.Json.member name json with
  | Some v -> v
  | None -> fail "Campaign: checkpoint %s: missing field %S" path name

let as_int path name = function
  | Telemetry.Json.Int i -> i
  | _ -> fail "Campaign: checkpoint %s: field %S is not an integer" path name

let as_float path name = function
  | Telemetry.Json.Float f -> f
  | Telemetry.Json.Int i -> float_of_int i
  | _ -> fail "Campaign: checkpoint %s: field %S is not a number" path name

let as_string path name = function
  | Telemetry.Json.String s -> s
  | _ -> fail "Campaign: checkpoint %s: field %S is not a string" path name

let as_obj path name = function
  | Telemetry.Json.Obj fields -> fields
  | _ -> fail "Campaign: checkpoint %s: field %S is not an object" path name

let load_checkpoint path w (cfg : config) =
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg -> fail "Campaign: cannot read checkpoint: %s" msg
  in
  let json =
    match Telemetry.Json.parse text with
    | Ok j -> j
    | Error msg -> fail "Campaign: checkpoint %s: %s" path msg
  in
  let field name = get_field path name json in
  let got_schema = as_string path "schema" (field "schema") in
  if got_schema <> schema then
    fail "Campaign: checkpoint %s: schema %S, expected %S" path got_schema
      schema;
  let got_workload = as_string path "workload" (field "workload") in
  if got_workload <> w.name then
    fail "Campaign: checkpoint %s: workload %S, expected %S" path got_workload
      w.name;
  let got_seed = as_int path "seed" (field "seed") in
  if got_seed <> cfg.seed then
    fail "Campaign: checkpoint %s: seed %d, expected %d" path got_seed cfg.seed;
  let st = fresh_state () in
  st.completed <- as_int path "completed" (field "completed");
  if st.completed < 0 then
    fail "Campaign: checkpoint %s: negative completed count" path;
  List.iter
    (fun (name, v) ->
      let sub f =
        match Telemetry.Json.member f v with
        | Some field -> field
        | None ->
          fail "Campaign: checkpoint %s: missing field %S" path
            (name ^ "." ^ f)
      in
      let hist =
        match Telemetry.Histogram.of_json_state (sub "hist") with
        | Ok h -> h
        | Error msg ->
          fail "Campaign: checkpoint %s: metric %S: %s" path name msg
      in
      Hashtbl.add st.value_accs name
        { n = as_int path "count" (sub "count");
          sum = as_float path "sum" (sub "sum");
          sumsq = as_float path "sumsq" (sub "sumsq");
          lo = as_float path "min" (sub "min");
          hi = as_float path "max" (sub "max");
          hist;
        })
    (as_obj path "values" (field "values"));
  List.iter
    (fun (name, v) -> Hashtbl.add st.count_accs name (ref (as_int path name v)))
    (as_obj path "counts" (field "counts"));
  st

(* ------------------------------------------------------------------ *)
(* The run loop                                                        *)
(* ------------------------------------------------------------------ *)

let validate (cfg : config) =
  if cfg.replications <= 0 then
    invalid_arg "Campaign.run: replications must be positive";
  if cfg.domains < 1 then invalid_arg "Campaign.run: domains must be >= 1";
  if cfg.batch < 1 then invalid_arg "Campaign.run: batch must be >= 1";
  if cfg.resume && cfg.checkpoint = None then
    invalid_arg "Campaign.run: resume requires a checkpoint path";
  (match cfg.ci_target with
  | Some t when t <= 0. ->
    invalid_arg "Campaign.run: ci_target must be positive"
  | _ -> ())

let min_replications_for_stopping = 8

let ci_target_met st = function
  | None -> false
  | Some target ->
    st.completed >= min_replications_for_stopping
    && Hashtbl.length st.value_accs > 0
    && Hashtbl.fold
         (fun _ a acc -> acc && half_width a <= target)
         st.value_accs true

let run (cfg : config) (w : workload) =
  validate cfg;
  let replications_counter = Telemetry.Metrics.counter "campaign.replications" in
  let shard_seconds = Telemetry.Metrics.histogram "campaign.shard_seconds" in
  (* domain-seconds the pool sat idle during this campaign's batch maps
     (fan-out overhead, queue latency, uneven shards) — the number that
     explains a sub-linear --domains speedup. Budget-gated one-sided by
     `bidir check`; empty on sequential (domains = 1) runs. *)
  let pool_idle = Telemetry.Metrics.histogram "campaign.pool_idle_seconds" in
  Telemetry.Span.with_span ~cat:"campaign"
    ~args:[ ("workload", Telemetry.Json.String w.name) ]
    "campaign.run"
  @@ fun () ->
  Engine.Pool.with_idle_sink pool_idle
  @@ fun () ->
  let st =
    match (cfg.resume, cfg.checkpoint) with
    | true, Some path -> load_checkpoint path w cfg
    | _ -> fresh_state ()
  in
  (* replication [i] is always the [i]-th split of the parent: on resume
     the first [completed] children are re-derived and discarded so the
     remaining replications see exactly the substreams they would have
     seen in an uninterrupted run *)
  let parent = Prob.Rng.create ~seed:cfg.seed in
  for _ = 1 to st.completed do
    ignore (Prob.Rng.split parent : Prob.Rng.t)
  done;
  let run_one (rep, rng) =
    Telemetry.Span.with_span ~cat:"campaign"
      ~args:[ ("rep", Telemetry.Json.Int rep) ]
      "campaign.shard"
      (fun () ->
        Telemetry.Metrics.time shard_seconds (fun () ->
            w.replicate ~rep ~rng))
  in
  (* spawn the workers before the first batch so the fan-out spawn cost
     is not attributed to the campaign's first shards *)
  if cfg.domains > 1 then Engine.Pool.prewarm ~domains:cfg.domains ();
  let t_run0 = Unix.gettimeofday () in
  let initial_completed = st.completed in
  let progress_now () =
    let elapsed = Unix.gettimeofday () -. t_run0 in
    let done_here = st.completed - initial_completed in
    let rate =
      if elapsed > 0. && done_here > 0 then float_of_int done_here /. elapsed
      else 0.
    in
    let max_hw =
      Hashtbl.fold
        (fun _ a acc ->
          if a.n < 2 then acc
          else
            let hw = half_width a in
            match acc with
            | None -> Some hw
            | Some m -> Some (Float.max m hw))
        st.value_accs None
    in
    let remaining = max 0 (cfg.replications - st.completed) in
    let eta =
      if rate > 0. then Some (float_of_int remaining /. rate) else None
    in
    { completed = st.completed;
      target = cfg.replications;
      elapsed_seconds = elapsed;
      rate;
      max_half_width = max_hw;
      ci_target = cfg.ci_target;
      eta_seconds = eta;
    }
  in
  let emit_progress () =
    if Option.is_some cfg.on_progress || Telemetry.Live.is_open () then begin
      let p = progress_now () in
      (match cfg.on_progress with Some f -> f p | None -> ());
      Telemetry.Live.note_progress ~name:("campaign:" ^ w.name)
        ~completed:p.completed ~total:p.target ~rate:p.rate
        ?ci_half_width:p.max_half_width ?ci_target:p.ci_target
        ?eta_seconds:p.eta_seconds ()
    end;
    (* a live heartbeat at every batch boundary *)
    Telemetry.Live.pulse_live ()
  in
  let stopped_early = ref false in
  (* With no checkpoint, no stopping rule, no progress consumer and no
     live stream, batch boundaries are unobservable — so issue ONE pool
     fan-out over all remaining replications instead of one per batch.
     The RNG split order and the (sequential, replication-order)
     accumulation are identical either way, so the result stays
     byte-identical; only the fan-out count changes. *)
  let fused =
    cfg.checkpoint = None && cfg.ci_target = None
    && Option.is_none cfg.on_progress
    && not (Telemetry.Live.is_open ())
  in
  if fused then begin
    let remaining = cfg.replications - st.completed in
    if remaining > 0 then begin
      let tasks =
        List.init remaining (fun i -> (st.completed + i, Prob.Rng.split parent))
      in
      let observations = Engine.Pool.map ~domains:cfg.domains run_one tasks in
      List.iter (accumulate st) observations;
      Telemetry.Metrics.add replications_counter remaining
    end
  end
  else
    while st.completed < cfg.replications && not !stopped_early do
      let n = min cfg.batch (cfg.replications - st.completed) in
      let tasks = List.init n (fun i -> (st.completed + i, Prob.Rng.split parent)) in
      let observations = Engine.Pool.map ~domains:cfg.domains run_one tasks in
      List.iter (accumulate st) observations;
      Telemetry.Metrics.add replications_counter n;
      (match cfg.checkpoint with
      | Some path -> write_checkpoint path w cfg st
      | None -> ());
      if ci_target_met st cfg.ci_target then stopped_early := true;
      emit_progress ()
    done;
  (* fold the per-replication counters into the global registry once,
     from the final totals (a resumed run must not double-count the
     replications its checkpoint already covered) *)
  List.iter
    (fun (name, total) ->
      Telemetry.Metrics.add
        (Telemetry.Metrics.counter
           (Printf.sprintf "campaign.%s.%s" w.name name))
        total)
    (sorted_bindings st.count_accs (fun r -> !r));
  { workload = w.name;
    seed = cfg.seed;
    target = cfg.replications;
    completed = st.completed;
    stopped_early = !stopped_early;
    values = sorted_bindings st.value_accs summary_of_acc;
    counters = sorted_bindings st.count_accs (fun r -> !r);
  }

let result_to_json r =
  let open Telemetry.Json in
  let summary s =
    let lo, hi = s.ci95 in
    Obj
      [ ("count", Int s.count);
        ("mean", Float s.mean);
        ("ci95", List [ Float lo; Float hi ]);
        ("min", Float s.min);
        ("max", Float s.max);
        ("p50", Float s.p50);
        ("p90", Float s.p90);
        ("p99", Float s.p99);
      ]
  in
  Obj
    [ ("workload", String r.workload);
      ("seed", Int r.seed);
      ("target", Int r.target);
      ("completed", Int r.completed);
      ("stopped_early", Bool r.stopped_early);
      ("values", Obj (List.map (fun (k, s) -> (k, summary s)) r.values));
      ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) r.counters));
    ]
