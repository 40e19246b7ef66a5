(* Tests for the sharded Monte-Carlo campaign runner: the determinism
   contract (byte-identical results across domain counts and across
   checkpoint/resume), the sequential stopping rule, config validation,
   and the cross-check that a campaign over the ergodic workload agrees
   with [Bidir.Ergodic]'s analytic long-run estimate. *)

module R = Campaign.Runner
module W = Campaign.Workloads
module J = Telemetry.Json

let render result = J.to_string (R.result_to_json result)

(* A cheap synthetic workload: a few RNG draws per replication, so the
   determinism tests exercise the sharding machinery rather than the
   simulator. The values have known population moments (standard
   normals), which the stopping-rule test leans on. *)
let synthetic =
  {
    R.name = "synthetic";
    replicate =
      (fun ~rep:_ ~rng ->
        let x = Prob.Dist.standard_normal rng in
        let y =
          Prob.Dist.standard_normal rng +. Prob.Dist.standard_normal rng
        in
        {
          R.values = [ ("x", x); ("y", y) ];
          counts = [ ("draws", 3) ];
        });
  }

let with_temp_checkpoint f =
  let path = Filename.temp_file "campaign_ckpt" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Determinism across domain counts                                    *)
(* ------------------------------------------------------------------ *)

let test_domains_byte_identical () =
  let run domains =
    render
      (R.run
         (R.default_config ~seed:23 ~domains ~batch:8 ~replications:24 ())
         (W.ergodic ~blocks_per_rep:30 ()))
  in
  let one = run 1 in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "domains=%d matches domains=1" domains)
        one (run domains))
    [ 2; 8 ]

(* The batch size sets checkpoint granularity only: any batch size must
   merge to the same result because accumulation is sequential in
   replication order. *)
let test_batch_size_invariant () =
  let run batch =
    render
      (R.run
         (R.default_config ~seed:5 ~batch ~replications:20 ())
         synthetic)
  in
  let baseline = run 32 in
  List.iter
    (fun batch ->
      Alcotest.(check string)
        (Printf.sprintf "batch=%d matches batch=32" batch)
        baseline (run batch))
    [ 1; 7; 20 ]

(* ------------------------------------------------------------------ *)
(* Checkpoint / resume                                                 *)
(* ------------------------------------------------------------------ *)

let test_resume_byte_identical () =
  with_temp_checkpoint (fun path ->
      let fresh =
        R.run (R.default_config ~seed:9 ~batch:5 ~replications:24 ()) synthetic
      in
      let partial =
        R.run
          (R.default_config ~seed:9 ~batch:5 ~checkpoint:path
             ~replications:10 ())
          synthetic
      in
      Alcotest.(check int) "partial run completed" 10 partial.R.completed;
      let resumed =
        R.run
          (R.default_config ~seed:9 ~batch:5 ~checkpoint:path ~resume:true
             ~domains:3 ~replications:24 ())
          synthetic
      in
      Alcotest.(check string) "resumed result matches uninterrupted run"
        (render fresh) (render resumed))

let test_resume_rejects_mismatched_seed () =
  with_temp_checkpoint (fun path ->
      ignore
        (R.run
           (R.default_config ~seed:9 ~checkpoint:path ~replications:8 ())
           synthetic
          : R.result);
      match
        R.run
          (R.default_config ~seed:10 ~checkpoint:path ~resume:true
             ~replications:8 ())
          synthetic
      with
      | (_ : R.result) -> Alcotest.fail "seed mismatch accepted"
      | exception Invalid_argument msg ->
        Alcotest.(check bool) "error names the seed" true
          (String.length msg > 0))

(* ------------------------------------------------------------------ *)
(* Stopping rule                                                       *)
(* ------------------------------------------------------------------ *)

let test_stopping_rule_stops_early () =
  let result =
    R.run
      (R.default_config ~seed:3 ~batch:8 ~ci_target:10. ~replications:400 ())
      synthetic
  in
  Alcotest.(check bool) "stopped early" true result.R.stopped_early;
  Alcotest.(check bool) "at least the minimum replications" true
    (result.R.completed >= 8);
  Alcotest.(check bool) "fewer than the target" true
    (result.R.completed < 400);
  (* counters reflect the replications actually run, not the target *)
  Alcotest.(check int) "draw counter matches completed count"
    (3 * result.R.completed)
    (List.assoc "draws" result.R.counters)

let test_tight_target_runs_to_completion () =
  let result =
    R.run
      (R.default_config ~seed:3 ~batch:8 ~ci_target:1e-9 ~replications:16 ())
      synthetic
  in
  Alcotest.(check bool) "did not stop early" false result.R.stopped_early;
  Alcotest.(check int) "ran every replication" 16 result.R.completed

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let test_config_validation () =
  let invalid msg cfg =
    match ignore (R.run cfg synthetic : R.result) with
    | () -> Alcotest.failf "%s: expected Invalid_argument" msg
    | exception Invalid_argument _ -> ()
  in
  invalid "zero replications" (R.default_config ~replications:0 ());
  invalid "zero batch" (R.default_config ~batch:0 ~replications:4 ());
  invalid "zero domains" (R.default_config ~domains:0 ~replications:4 ());
  invalid "resume without checkpoint"
    (R.default_config ~resume:true ~replications:4 ());
  invalid "non-positive ci target"
    (R.default_config ~ci_target:0. ~replications:4 ())

(* ------------------------------------------------------------------ *)
(* Summaries and the ergodic cross-check                               *)
(* ------------------------------------------------------------------ *)

let test_summary_shape () =
  let result =
    R.run (R.default_config ~seed:1 ~replications:64 ()) synthetic
  in
  let x = List.assoc "x" result.R.values in
  Alcotest.(check int) "per-metric count" 64 x.R.count;
  let lo, hi = x.R.ci95 in
  Alcotest.(check bool) "mean inside its own CI" true
    (lo <= x.R.mean && x.R.mean <= hi);
  Alcotest.(check bool) "quantiles ordered" true
    (x.R.min <= x.R.p50 && x.R.p50 <= x.R.p90 && x.R.p90 <= x.R.p99
   && x.R.p99 <= x.R.max);
  (* 64 standard-normal means: the CI should comfortably cover 0 *)
  Alcotest.(check bool) "standard-normal mean near zero" true
    (lo <= 0. && 0. <= hi)

(* The campaign estimate and [Bidir.Ergodic]'s direct long-run estimate
   target the same expectation, so their 95% intervals must overlap. *)
let test_ergodic_cross_check () =
  let result =
    R.run
      (R.default_config ~seed:17 ~batch:8 ~replications:24 ())
      (W.ergodic ~blocks_per_rep:60 ())
  in
  let sum_rate = List.assoc "sum_rate" result.R.values in
  let campaign_lo, campaign_hi = sum_rate.R.ci95 in
  let analytic =
    Bidir.Ergodic.ergodic_sum_rate ~blocks:2_000
      (Channel.Fading.create ~rng_seed:77 ~mean:Channel.Gains.paper_fig4 ())
      ~power:(Numerics.Float_utils.db_to_lin 10.)
      Bidir.Protocol.Tdbc
  in
  let analytic_lo, analytic_hi = analytic.Bidir.Ergodic.ci95 in
  Alcotest.(check bool)
    (Printf.sprintf "campaign [%g, %g] overlaps analytic [%g, %g]"
       campaign_lo campaign_hi analytic_lo analytic_hi)
    true
    (campaign_lo <= analytic_hi && analytic_lo <= campaign_hi);
  Alcotest.(check int) "block counter merged exactly" (24 * 60)
    (List.assoc "blocks" result.R.counters)

(* ------------------------------------------------------------------ *)
(* Progress hook and live streaming                                    *)
(* ------------------------------------------------------------------ *)

let test_progress_hook () =
  let seen = ref [] in
  let result =
    R.run
      (R.default_config ~seed:5 ~batch:16
         ~on_progress:(fun p -> seen := p :: !seen)
         ~replications:64 ())
      synthetic
  in
  let calls = List.rev !seen in
  Alcotest.(check int) "one call per batch" 4 (List.length calls);
  Alcotest.(check (list int)) "completed counts at batch boundaries"
    [ 16; 32; 48; 64 ]
    (List.map (fun (p : R.progress) -> p.R.completed) calls);
  List.iter
    (fun (p : R.progress) ->
      Alcotest.(check int) "target" 64 p.R.target;
      Alcotest.(check bool) "elapsed >= 0" true (p.R.elapsed_seconds >= 0.);
      Alcotest.(check bool) "rate >= 0" true (p.R.rate >= 0.);
      Alcotest.(check (option (float 1e-9))) "no ci target configured" None
        p.R.ci_target)
    calls;
  (* elapsed is monotone across batches, and the last ETA is zero *)
  ignore
    (List.fold_left
       (fun prev (p : R.progress) ->
         Alcotest.(check bool) "elapsed monotone" true
           (p.R.elapsed_seconds >= prev);
         p.R.elapsed_seconds)
       0. calls
      : float);
  (match (List.nth calls 3).R.eta_seconds with
  | Some eta -> Alcotest.(check (float 1e-9)) "final eta" 0. eta
  | None -> Alcotest.fail "final progress lacks an eta");
  Alcotest.(check int) "hook is observation-only" 64 result.R.completed

(* The fused single-fan-out path (no hook, no checkpoint, no stopping
   rule, streaming off) must produce the same bytes as the per-batch
   path, at any domain count. *)
let test_fused_path_byte_identical () =
  let run ?on_progress domains =
    render
      (R.run
         (R.default_config ~seed:23 ~domains ~batch:8 ?on_progress
            ~replications:24 ())
         (W.ergodic ~blocks_per_rep:30 ()))
  in
  let fused = run 1 in
  Alcotest.(check string) "per-batch (hook) matches fused, 1 domain" fused
    (run ~on_progress:(fun _ -> ()) 1);
  Alcotest.(check string) "per-batch (hook) matches fused, 4 domains" fused
    (run ~on_progress:(fun _ -> ()) 4);
  Alcotest.(check string) "fused, 4 domains" fused (run 4)

(* Run [f] with a live writer on a temporary file (every pulse writes
   a heartbeat); return its result and the file folded by the reader. *)
let with_live f =
  let path = Filename.temp_file "campaign_live" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Telemetry.Live.open_live ~interval:0. path;
  let result = Fun.protect ~finally:Telemetry.Live.close_live f in
  let st = Telemetry.Live.create () in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          Telemetry.Live.feed_line st (input_line ic)
        done
      with End_of_file -> ());
  (result, st)

(* Live streaming on: the runner notes per-batch progress and pulses
   heartbeats into the live file without changing the result. *)
let test_streaming_byte_identical () =
  let run () =
    render
      (R.run (R.default_config ~seed:7 ~batch:16 ~replications:32 ())
         synthetic)
  in
  let off = run () in
  let on, st = with_live run in
  Alcotest.(check string) "streaming is observation-only" off on;
  Alcotest.(check int) "no parse errors" 0 (Telemetry.Live.parse_errors st);
  Alcotest.(check int) "one heartbeat per batch plus the close" 3
    (Telemetry.Live.heartbeats st);
  Alcotest.(check bool) "monotone" true (Telemetry.Live.monotone st);
  Alcotest.(check bool) "finished" true (Telemetry.Live.finished st);
  match Telemetry.Live.progress st with
  | Some p ->
    Alcotest.(check string) "progress stream name" "campaign:synthetic"
      p.Telemetry.Live.name;
    Alcotest.(check int) "ran to completion" 32 p.Telemetry.Live.completed
  | None -> Alcotest.fail "no progress in the live file"

(* Between them the heartbeats carry the whole registry: after a
   4-batch campaign, the registry folded from the live file is the one
   captured after the writer closed. The writer's own telemetry.stream.*
   counters are left out: the last heartbeat counts itself after it is
   written. *)
let test_live_registry_is_final_snapshot () =
  let module S = Telemetry.Snapshot in
  let own (name, _) = String.starts_with ~prefix:"telemetry.stream." name in
  let strip (s : S.t) =
    { s with
      counters = List.filter (fun m -> not (own m)) s.counters;
      histograms = List.filter (fun m -> not (own m)) s.histograms;
    }
  in
  List.iter
    (fun domains ->
      let (), st =
        with_live (fun () ->
            ignore
              (R.run
                 (R.default_config ~seed:11 ~domains ~batch:8
                    ~replications:32 ())
                 synthetic
                : R.result))
      in
      let final = S.capture () in
      Alcotest.(check int)
        (Printf.sprintf "%d domains: 4 batches, 5 heartbeats" domains)
        5 (Telemetry.Live.heartbeats st);
      let d = S.diff (strip final) (strip (Telemetry.Live.registry st)) in
      List.iter
        (fun c ->
          if c.S.status <> S.Match then
            Alcotest.failf "%d domains: %s differs (%s)" domains c.S.metric
              c.S.detail)
        d.S.comparisons;
      Alcotest.(check bool)
        (Printf.sprintf "%d domains: folded registry identical" domains)
        true (S.identical d))
    [ 1; 4 ]

let suites =
  [ ( "campaign.determinism",
      [ Alcotest.test_case "byte-identical across domains" `Quick
          test_domains_byte_identical;
        Alcotest.test_case "batch size does not change results" `Quick
          test_batch_size_invariant;
        Alcotest.test_case "checkpoint/resume matches uninterrupted run"
          `Quick test_resume_byte_identical;
        Alcotest.test_case "resume refuses mismatched seed" `Quick
          test_resume_rejects_mismatched_seed;
      ] );
    ( "campaign.runner",
      [ Alcotest.test_case "stopping rule stops early" `Quick
          test_stopping_rule_stops_early;
        Alcotest.test_case "tight target runs to completion" `Quick
          test_tight_target_runs_to_completion;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "summary shape" `Quick test_summary_shape;
        Alcotest.test_case "ergodic campaign matches analytic estimate"
          `Quick test_ergodic_cross_check;
      ] );
    ( "campaign.progress",
      [ Alcotest.test_case "hook fires at batch boundaries" `Quick
          test_progress_hook;
        Alcotest.test_case "fused fan-out matches per-batch, domains 1/4"
          `Quick test_fused_path_byte_identical;
        Alcotest.test_case "live streaming is observation-only" `Quick
          test_streaming_byte_identical;
        Alcotest.test_case "live registry = final snapshot, domains 1/4"
          `Quick test_live_registry_is_final_snapshot;
      ] );
  ]
