(* Tests for Telemetry.Snapshot: capture/persist round-trips, the
   diff's tolerance policy (exact counters vs banded wall-time
   histograms), and the regression-report rendering. *)

module S = Telemetry.Snapshot
module H = Telemetry.Histogram
module J = Telemetry.Json

(* The metrics registry is process-global and shared with every other
   suite, so tests mint fresh metric names instead of resetting it. *)
let fresh =
  let n = ref 0 in
  fun kind ->
    incr n;
    Printf.sprintf "test.snapshot.%s.%d" kind !n

let roundtrip snap =
  match S.of_string (J.to_string_pretty (S.to_json snap)) with
  | Ok s -> s
  | Error m -> Alcotest.failf "snapshot roundtrip: %s" m

let find_cmp d metric =
  match
    List.find_opt (fun c -> c.S.metric = metric) d.S.comparisons
  with
  | Some c -> c
  | None -> Alcotest.failf "metric %S not in diff" metric

(* A synthetic snapshot: no registry involved, so both sides of a diff
   are fully under the test's control. *)
let snap histograms counters =
  { S.label = "synthetic"; created_at = 0.; counters; histograms }

let hist_of values =
  let h = H.create ~lo:1e-6 ~growth:2. ~buckets:64 () in
  List.iter (H.observe h) values;
  h

(* ------------------------------------------------------------------ *)
(* Capture → JSON → parse → self-diff is empty                         *)
(* ------------------------------------------------------------------ *)

let test_capture_roundtrip_empty_diff () =
  let c = Telemetry.Metrics.counter (fresh "counter") in
  Telemetry.Metrics.add c 17;
  let h = Telemetry.Metrics.histogram (fresh "hist") in
  List.iter (Telemetry.Metrics.observe h) [ 0.1; 2.5; 0.004 ];
  let captured = S.capture ~label:"roundtrip" () in
  let reloaded = roundtrip captured in
  Alcotest.(check string) "label" "roundtrip" reloaded.S.label;
  let d = S.diff captured reloaded in
  Alcotest.(check bool) "identical" true (S.identical d);
  Alcotest.(check bool) "ok" true (S.ok d);
  Alcotest.(check (list string)) "no violations" []
    (List.map (fun c -> c.S.metric) (S.violations d))

(* Captures are point-in-time: mutating the live registry afterwards
   must not change the snapshot. *)
let test_capture_is_a_copy () =
  let name = fresh "hist" in
  let h = Telemetry.Metrics.histogram name in
  Telemetry.Metrics.observe h 1.;
  let captured = S.capture () in
  Telemetry.Metrics.observe h 100.;
  let in_snap = List.assoc name captured.S.histograms in
  Alcotest.(check int) "count frozen" 1 (H.count in_snap)

let qcheck_roundtrip =
  let gen = QCheck.(pair (int_bound 10_000) (small_list float)) in
  QCheck.Test.make ~count:100
    ~name:"snapshot capture -> JSON -> parse self-diff is empty" gen
    (fun (v, floats) ->
      let c = Telemetry.Metrics.counter (fresh "qc_counter") in
      Telemetry.Metrics.add c v;
      let h = Telemetry.Metrics.histogram (fresh "qc_hist") in
      List.iter (Telemetry.Metrics.observe h) floats;
      let captured = S.capture () in
      match S.of_string (J.to_string_pretty (S.to_json captured)) with
      | Error _ -> false
      | Ok reloaded ->
        let d = S.diff captured reloaded in
        S.identical d && S.ok d)

(* ------------------------------------------------------------------ *)
(* Deliberate perturbations are flagged                                *)
(* ------------------------------------------------------------------ *)

let test_counter_perturbation_flagged () =
  let name = fresh "counter" in
  let c = Telemetry.Metrics.counter name in
  Telemetry.Metrics.add c 42;
  let base = S.capture () in
  let perturbed =
    { base with
      S.counters =
        List.map
          (fun (n, v) -> if n = name then (n, v + 1) else (n, v))
          base.S.counters;
    }
  in
  let d = S.diff base perturbed in
  Alcotest.(check bool) "violates" false (S.ok d);
  let cmp = find_cmp d name in
  Alcotest.(check bool) "drift status" true (cmp.S.status = S.Drift);
  Alcotest.(check bool) "named in violations" true
    (List.exists (fun c -> c.S.metric = name) (S.violations d))

let test_missing_and_new_metrics () =
  let name = fresh "counter" in
  ignore (Telemetry.Metrics.counter name : Telemetry.Metrics.counter);
  let full = S.capture () in
  let without =
    { full with S.counters = List.remove_assoc name full.S.counters }
  in
  (* metric vanished: violation *)
  let gone = S.diff full without in
  Alcotest.(check bool) "missing violates" false (S.ok gone);
  Alcotest.(check bool) "missing status" true
    ((find_cmp gone name).S.status = S.Missing);
  (* metric appeared: reported but allowed *)
  let appeared = S.diff without full in
  Alcotest.(check bool) "new is ok" true (S.ok appeared);
  Alcotest.(check bool) "new status" true
    ((find_cmp appeared name).S.status = S.New)

(* ------------------------------------------------------------------ *)
(* Tolerance policy on histograms                                      *)
(* ------------------------------------------------------------------ *)

let test_time_band_policy () =
  let name = "x.fake_seconds" in
  let base = snap [ (name, hist_of [ 0.010 ]) ] [] in
  let close = snap [ (name, hist_of [ 0.011 ]) ] [] in
  (* +10% mean: inside a 50% band, outside a 0.1% band *)
  let lax = S.diff ~policy:(S.default_policy ~tolerance:0.5 ()) base close in
  Alcotest.(check bool) "within band passes" true (S.ok lax);
  Alcotest.(check bool) "within-band status" true
    ((find_cmp lax name).S.status = S.Within_band);
  let strict =
    S.diff ~policy:(S.default_policy ~tolerance:0.001 ()) base close
  in
  Alcotest.(check bool) "outside band fails" false (S.ok strict);
  (* a sample-count change under Time_band is structural drift however
     generous the band *)
  let twice = snap [ (name, hist_of [ 0.010; 0.010 ]) ] [] in
  let d = S.diff ~policy:(S.default_policy ~tolerance:100. ()) base twice in
  Alcotest.(check bool) "count change fails" false (S.ok d)

let test_exact_histogram_distribution () =
  let name = "x.depth" in
  let base = snap [ (name, hist_of [ 1.; 2. ]) ] [] in
  let same = snap [ (name, hist_of [ 1.; 2. ]) ] [] in
  let moved = snap [ (name, hist_of [ 1.; 3. ]) ] [] in
  Alcotest.(check bool) "identical distributions pass" true
    (S.identical (S.diff base same));
  let d = S.diff base moved in
  Alcotest.(check bool) "moved sample fails" false (S.ok d);
  Alcotest.(check bool) "drift status" true
    ((find_cmp d name).S.status = S.Drift)

(* ------------------------------------------------------------------ *)
(* Resource budgets: one-sided counters and histograms, ignored gc.*   *)
(* ------------------------------------------------------------------ *)

let test_alloc_budget_one_sided () =
  let name = "linprog.alloc_bytes" in
  let base = snap [] [ (name, 1_000_000) ] in
  let improved = snap [] [ (name, 900_000) ] in
  let regressed = snap [] [ (name, 1_000_001) ] in
  let d = S.diff base improved in
  Alcotest.(check bool) "allocating less passes" true (S.ok d);
  Alcotest.(check bool) "improvement is within-band" true
    ((find_cmp d name).S.status = S.Within_band);
  let d = S.diff base regressed in
  Alcotest.(check bool) "allocating more fails" false (S.ok d);
  Alcotest.(check bool) "regression is drift" true
    ((find_cmp d name).S.status = S.Drift)

let test_gc_counters_ignored () =
  let name = "gc.minor_words" in
  let base = snap [] [ (name, 5_000_000) ] in
  let moved = snap [] [ (name, 9_999_999) ] in
  let d = S.diff base moved in
  Alcotest.(check bool) "gc totals never gate" true (S.ok d);
  Alcotest.(check bool) "rule is Ignore" true
    ((find_cmp d name).S.rule = S.Ignore)

let test_pool_idle_budget_histogram () =
  let name = "campaign.pool_idle_seconds" in
  let base = snap [ (name, hist_of [ 0.2; 0.2 ]) ] [] in
  (* less idle time, different sample count: still passes — the gate is
     one-sided on the sum, not count-exact like a Time_band *)
  let improved = snap [ (name, hist_of [ 0.1 ]) ] [] in
  let d = S.diff base improved in
  Alcotest.(check bool) "less idle passes" true (S.ok d);
  Alcotest.(check bool) "improvement is within-band" true
    ((find_cmp d name).S.status = S.Within_band);
  (* within the 50% slack: allowed *)
  let noisy = snap [ (name, hist_of [ 0.2; 0.25 ]) ] [] in
  Alcotest.(check bool) "scheduler noise within slack passes" true
    (S.ok (S.diff base noisy));
  (* well past the slack: regression *)
  let regressed = snap [ (name, hist_of [ 0.5; 0.5 ]) ] [] in
  let d = S.diff base regressed in
  Alcotest.(check bool) "much more idle fails" false (S.ok d);
  Alcotest.(check bool) "regression is drift" true
    ((find_cmp d name).S.status = S.Drift);
  (* both empty (the 1-domain check workload): clean match *)
  let empty = snap [ (name, hist_of []) ] [] in
  let empty' = snap [ (name, hist_of []) ] [] in
  Alcotest.(check bool) "empty vs empty matches" true
    (S.identical (S.diff empty empty'))

(* Names no longer registered that older baselines still carry: the
   counters of the retired live event ring and leveled logger, of the
   retired rate-region boundary, polygon and feasibility memo tables,
   of the HBC-advantage memo table, the engine-wide memo totals, and
   the heartbeat timer. *)
let retired_counters =
  [ "engine.lp_solves"; "telemetry.stream.dropped_events";
    "telemetry.log.debug"; "telemetry.log.info"; "telemetry.log.warn";
    "telemetry.log.error"; "telemetry.log.suppressed";
    "memo.rate_region.boundary.hits"; "memo.rate_region.boundary.misses";
    "memo.rate_region.polygon.hits"; "memo.rate_region.polygon.misses";
    "memo.rate_region.feasibility.hits";
    "memo.rate_region.feasibility.misses";
    "memo.optimize.hbc_advantage.hits"; "memo.optimize.hbc_advantage.misses";
    "engine.cache_hits"; "engine.cache_misses" ]

let test_retired_lp_solves_ignored () =
  let retired_hist = "telemetry.stream.flush_seconds" in
  let base =
    snap
      [ (retired_hist, hist_of [ 1e-4 ]) ]
      (("linprog.solves", 455) :: List.map (fun n -> (n, 3)) retired_counters)
  in
  let cur = snap [] [ ("linprog.solves", 455) ] in
  let d = S.diff base cur in
  Alcotest.(check bool) "old baseline reads cleanly" true (S.ok d);
  List.iter
    (fun name ->
      let c = find_cmp d name in
      Alcotest.(check bool) (name ^ " rule is Ignore") true (c.S.rule = S.Ignore);
      Alcotest.(check bool) (name ^ " is not Missing") true
        (c.S.status = S.Match))
    (retired_hist :: retired_counters)

let test_chunk_imbalance_ignored () =
  let name = "engine.pool.chunk_imbalance" in
  let base = snap [ (name, hist_of [ 1.1; 1.4 ]) ] [] in
  let moved = snap [ (name, hist_of [ 3.9 ]) ] [] in
  Alcotest.(check bool) "imbalance ratio never gates" true
    (S.ok (S.diff base moved))

(* ------------------------------------------------------------------ *)
(* Report rendering                                                    *)
(* ------------------------------------------------------------------ *)

let test_report_names_offender () =
  let base = snap [] [ ("a.total", 5); ("b.total", 7) ] in
  let cur = snap [] [ ("a.total", 5); ("b.total", 9) ] in
  let d = S.diff base cur in
  let text = Report.Regression.render_text d in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "text names the metric" true (contains text "b.total");
  Alcotest.(check bool) "summary says REGRESSION" true
    (contains text "REGRESSION");
  let json = Report.Regression.to_json d in
  (match J.member "ok" json with
  | Some (J.Bool false) -> ()
  | _ -> Alcotest.fail "report JSON must carry ok=false");
  match J.member "violations" json with
  | Some (J.Int 1) -> ()
  | _ -> Alcotest.fail "report JSON must count 1 violation"

let suites =
  [ ( "telemetry.snapshot",
      [ Alcotest.test_case "capture/JSON roundtrip self-diff empty" `Quick
          test_capture_roundtrip_empty_diff;
        Alcotest.test_case "capture is a point-in-time copy" `Quick
          test_capture_is_a_copy;
        QCheck_alcotest.to_alcotest qcheck_roundtrip;
        Alcotest.test_case "perturbed counter flagged" `Quick
          test_counter_perturbation_flagged;
        Alcotest.test_case "missing vs new metrics" `Quick
          test_missing_and_new_metrics;
        Alcotest.test_case "time-band tolerance" `Quick test_time_band_policy;
        Alcotest.test_case "exact histogram distribution" `Quick
          test_exact_histogram_distribution;
        Alcotest.test_case "alloc budget gates one-sided" `Quick
          test_alloc_budget_one_sided;
        Alcotest.test_case "gc.* counters ignored" `Quick
          test_gc_counters_ignored;
        Alcotest.test_case "pool idle budget histogram" `Quick
          test_pool_idle_budget_histogram;
        Alcotest.test_case "chunk imbalance ignored" `Quick
          test_chunk_imbalance_ignored;
        Alcotest.test_case "retired engine.lp_solves ignored" `Quick
          test_retired_lp_solves_ignored;
        Alcotest.test_case "report names the offender" `Quick
          test_report_names_offender;
      ] );
  ]
