(* Tests for the engine subsystem: deterministic pool mapping,
   memoization semantics, and end-to-end invariance of figure output
   under domain count and cache state. *)

let int_list = Alcotest.(list int)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_matches_list_map () =
  let items = List.init 37 Fun.id in
  let f x = (x * x) - (3 * x) in
  let expected = List.map f items in
  List.iter
    (fun domains ->
      Alcotest.check int_list
        (Printf.sprintf "domains=%d" domains)
        expected
        (Engine.Pool.map ~domains f items))
    [ 1; 2; 4 ]

let test_pool_empty_and_singleton () =
  Alcotest.check int_list "empty" [] (Engine.Pool.map ~domains:4 succ []);
  Alcotest.check int_list "singleton" [ 8 ]
    (Engine.Pool.map ~domains:4 succ [ 7 ])

let test_pool_more_domains_than_items () =
  let items = [ 1; 2; 3 ] in
  Alcotest.check int_list "d > n" (List.map succ items)
    (Engine.Pool.map ~domains:16 succ items)

exception Boom of int

let test_pool_propagates_exception () =
  List.iter
    (fun domains ->
      match
        Engine.Pool.map ~domains
          (fun x -> if x = 11 then raise (Boom x) else x)
          (List.init 20 Fun.id)
      with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 11 -> ())
    [ 1; 2; 4 ]

let test_pool_nested_map () =
  (* an [f] that itself maps must run inline in the worker, not
     deadlock the pool *)
  let result =
    Engine.Pool.map ~domains:2
      (fun x -> List.fold_left ( + ) 0 (Engine.Pool.map ~domains:2 (( * ) x) [ 1; 2; 3 ]))
      [ 1; 2; 3; 4 ]
  in
  Alcotest.check int_list "nested" [ 6; 12; 18; 24 ] result

let test_pool_rejects_bad_domains () =
  Alcotest.check_raises "domains = 0"
    (Invalid_argument "Engine.Pool.map: domains < 1") (fun () ->
      ignore (Engine.Pool.map ~domains:0 succ [ 1 ]))

let test_pool_concurrent_overlapping_maps () =
  (* two caller domains issuing overlapping map_array calls against
     the shared worker pool: results must be correct for both, and the
     utilization accounting must stay sane (no negative queue-wait or
     busy observations from racing clocks) *)
  let n = 1_000 in
  let input = Array.init n Fun.id in
  let caller mult () =
    Array.init 10 (fun _ ->
        Engine.Pool.map_array ~domains:2 (fun x -> mult * x) input)
  in
  let d1 = Domain.spawn (caller 3) in
  let d2 = Domain.spawn (caller 5) in
  let check mult rounds =
    Array.iter
      (fun out ->
        Alcotest.(check int) "length" n (Array.length out);
        Array.iteri
          (fun i y ->
            if y <> mult * i then
              Alcotest.failf "slot %d: expected %d, got %d" i (mult * i) y)
          out)
      rounds
  in
  check 3 (Domain.join d1);
  check 5 (Domain.join d2);
  List.iter
    (fun name ->
      match List.assoc_opt name (Telemetry.Metrics.histograms ()) with
      | None -> ()
      | Some h ->
        if Telemetry.Histogram.count h > 0 then
          Alcotest.(check bool) (name ^ " observations non-negative") true
            (Telemetry.Histogram.min_value h >= 0.))
    [ "engine.pool.queue_wait_seconds"; "engine.pool.busy_seconds";
      "engine.pool.idle_seconds"; "engine.pool.chunk_seconds" ]

(* ------------------------------------------------------------------ *)
(* Memo                                                                *)
(* ------------------------------------------------------------------ *)

let test_memo_computes_once () =
  let t : (int, int) Engine.Memo.t = Engine.Memo.create () in
  let calls = ref 0 in
  let compute () =
    incr calls;
    42
  in
  Alcotest.(check int) "first" 42 (Engine.Memo.find_or_add t 1 compute);
  Alcotest.(check int) "second" 42 (Engine.Memo.find_or_add t 1 compute);
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "length" 1 (Engine.Memo.length t);
  Engine.Memo.clear t;
  Alcotest.(check int) "cleared" 0 (Engine.Memo.length t)

let test_memo_disabled_recomputes () =
  let t : (int, int) Engine.Memo.t = Engine.Memo.create () in
  let calls = ref 0 in
  let compute () =
    incr calls;
    7
  in
  Engine.Memo.with_enabled false (fun () ->
      ignore (Engine.Memo.find_or_add t 1 compute);
      ignore (Engine.Memo.find_or_add t 1 compute));
  Alcotest.(check int) "computed twice when disabled" 2 !calls;
  Alcotest.(check int) "nothing stored" 0 (Engine.Memo.length t);
  Alcotest.(check bool) "switch restored" true (Engine.Memo.enabled ())

let test_memo_exception_stores_nothing () =
  let t : (int, int) Engine.Memo.t = Engine.Memo.create () in
  (match Engine.Memo.find_or_add t 1 (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ());
  Alcotest.(check int) "nothing stored" 0 (Engine.Memo.length t)

(* The rate-region memo keys a bound system by the exact bits of its
   coefficients: observed through the table's public hit/miss counters,
   a repeat is a hit, and bounds one ulp or one zero sign apart never
   share an entry. *)

(* (hits, misses) of the weighted-LP memo over one [max_weighted] on
   [b1] and then one on [b2], from empty caches *)
let weighted_traffic b1 b2 =
  let counter kind =
    Telemetry.Metrics.counter ("memo.rate_region.weighted." ^ kind)
  in
  let hits = counter "hits" and misses = counter "misses" in
  Bidir.Rate_region.clear_cache ();
  let h0 = Telemetry.Metrics.value hits
  and m0 = Telemetry.Metrics.value misses in
  List.iter
    (fun b -> ignore (Bidir.Rate_region.max_weighted b ~wa:0.3 ~wb:0.7))
    [ b1; b2 ];
  (Telemetry.Metrics.value hits - h0, Telemetry.Metrics.value misses - m0)

let traffic = Alcotest.(pair int int)

let scen = Bidir.Gaussian.scenario ~power_db:10. ~gains:Channel.Gains.paper_fig4

(* [b] with coefficient [phase] of its first term replaced by [f] of it *)
let with_coeff (b : Bidir.Bound.t) ~phase f =
  match b.Bidir.Bound.terms with
  | [] -> Alcotest.fail "bound without terms"
  | (t : Bidir.Bound.term) :: rest ->
    let pp = Array.copy t.Bidir.Bound.per_phase in
    pp.(phase) <- f pp.(phase);
    { b with Bidir.Bound.terms = { t with Bidir.Bound.per_phase = pp } :: rest }

let test_bound_key_repeat_hits () =
  let b = Bidir.Gaussian.bounds Bidir.Protocol.Hbc Bidir.Bound.Inner scen in
  Alcotest.check traffic "same bound twice: 1 hit, 1 miss" (1, 1)
    (weighted_traffic b b)

let test_bound_key_one_ulp () =
  let b = Bidir.Gaussian.bounds Bidir.Protocol.Tdbc Bidir.Bound.Inner scen in
  Alcotest.check traffic "one ulp apart: 2 misses" (0, 2)
    (weighted_traffic b (with_coeff b ~phase:0 Float.succ))

let test_bound_key_zero_sign () =
  (* DT's first term is [ab; 0.]: flip the sign of its zero *)
  let b = Bidir.Gaussian.bounds Bidir.Protocol.Dt Bidir.Bound.Inner scen in
  let b' =
    with_coeff b ~phase:1 (fun c ->
        Alcotest.(check (float 0.)) "DT's a->b term is 0 in phase 2" 0. c;
        -0.)
  in
  Alcotest.check traffic "0. vs -0.: 2 misses" (0, 2) (weighted_traffic b b')

(* ------------------------------------------------------------------ *)
(* End-to-end determinism                                              *)
(* ------------------------------------------------------------------ *)

let series_points (f : Bidir.Figures.figure) =
  List.concat_map (fun s -> s.Bidir.Figures.points) f.Bidir.Figures.series

let check_same_points msg ps qs =
  Alcotest.(check int) (msg ^ ": length") (List.length ps) (List.length qs);
  List.iter2
    (fun (x1, y1) (x2, y2) ->
      Alcotest.(check (float 0.)) (msg ^ ": x") x1 x2;
      Alcotest.(check (float 0.)) (msg ^ ": y") y1 y2)
    ps qs

let with_domains domains f =
  Engine.Pool.set_default_domains domains;
  Fun.protect ~finally:(fun () -> Engine.Pool.set_default_domains 1) f

let test_fig3_identical_across_domains () =
  let run domains =
    with_domains domains (fun () ->
        series_points (Bidir.Figures.fig3 ~samples:9 ()))
  in
  let base = run 1 in
  (* bit-identical, hence the zero tolerance in [check_same_points] *)
  check_same_points "domains 1 vs 2" base (run 2);
  check_same_points "domains 1 vs 4" base (run 4)

(* fig4 is the LP-heavy artifact: every series is a rate-region
   boundary, so this drives the flat-kernel solver, the warm
   [reoptimize_into] slots and the flat dedup buffers end to end. The
   byte-identity contract is on the RENDERED artifacts (what `figures
   all --out` writes and CI diffs across domain counts): raw vertex
   coordinates may differ in the last few ulps between warm-start
   sequences, but the published txt/csv bytes must not. *)
let test_fig4_identical_across_domains () =
  let run domains =
    with_domains domains (fun () ->
        Bidir.Rate_region.clear_cache ();
        let f = Bidir.Figures.fig4 ~power_db:10. () in
        (Report.render_figure f, Report.figure_csv f))
  in
  let txt1, csv1 = run 1 in
  let txt4, csv4 = run 4 in
  Alcotest.(check string) "fig4 txt domains 1 vs 4" txt1 txt4;
  Alcotest.(check string) "fig4 csv domains 1 vs 4" csv1 csv4

let test_cache_on_off_agree () =
  let points enabled =
    Engine.Memo.with_enabled enabled (fun () ->
        series_points (Bidir.Figures.fig3 ~samples:9 ()))
  in
  let on = points true and off = points false in
  Alcotest.(check int) "length" (List.length on) (List.length off);
  List.iter2
    (fun (x1, y1) (x2, y2) ->
      Alcotest.(check (float 1e-12)) "x" x1 x2;
      Alcotest.(check (float 1e-12)) "y" y1 y2)
    on off

let test_crossover_hits_cache () =
  Engine.Memo.clear_all ();
  Engine.Stats.reset ();
  ignore (Bidir.Figures.crossover_table () : Bidir.Figures.table);
  let s = Engine.Stats.snapshot () in
  Alcotest.(check bool)
    "nonzero hit rate" true
    (s.Engine.Stats.cache_hits > 0)

let suites =
  [ ( "engine.pool",
      [ Alcotest.test_case "matches List.map" `Quick test_pool_matches_list_map;
        Alcotest.test_case "empty / singleton" `Quick test_pool_empty_and_singleton;
        Alcotest.test_case "more domains than items" `Quick test_pool_more_domains_than_items;
        Alcotest.test_case "exception propagation" `Quick test_pool_propagates_exception;
        Alcotest.test_case "nested map" `Quick test_pool_nested_map;
        Alcotest.test_case "rejects domains < 1" `Quick test_pool_rejects_bad_domains;
        Alcotest.test_case "concurrent overlapping maps" `Quick
          test_pool_concurrent_overlapping_maps;
      ] );
    ( "engine.memo",
      [ Alcotest.test_case "computes once" `Quick test_memo_computes_once;
        Alcotest.test_case "disabled recomputes" `Quick test_memo_disabled_recomputes;
        Alcotest.test_case "exception stores nothing" `Quick test_memo_exception_stores_nothing;
        Alcotest.test_case "bound key: repeat hits" `Quick test_bound_key_repeat_hits;
        Alcotest.test_case "bound key: one ulp misses" `Quick test_bound_key_one_ulp;
        Alcotest.test_case "bound key: zero sign misses" `Quick test_bound_key_zero_sign;
      ] );
    ( "engine.determinism",
      [ Alcotest.test_case "fig3 identical across domains" `Quick test_fig3_identical_across_domains;
        Alcotest.test_case "fig4 identical across domains" `Quick test_fig4_identical_across_domains;
        Alcotest.test_case "cache on/off agree" `Quick test_cache_on_off_agree;
        Alcotest.test_case "crossover_table hits cache" `Quick test_crossover_hits_cache;
      ] );
  ]
