(* Tests for the telemetry subsystem: log-bucket histograms, the
   metrics registry, the JSON emitter/parser, the live file,
   hierarchical spans and the Chrome-trace sink — including the
   guarantee that the span set a workload produces is independent of
   the pool's domain count. *)

module H = Telemetry.Histogram
module J = Telemetry.Json

let feq = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Histogram edge cases                                                *)
(* ------------------------------------------------------------------ *)

let test_hist_empty () =
  let h = H.create () in
  Alcotest.(check int) "count" 0 (H.count h);
  feq "sum" 0. (H.sum h);
  feq "mean" 0. (H.mean h);
  let p50, p90, p99 = H.percentiles h in
  feq "p50" 0. p50;
  feq "p90" 0. p90;
  feq "p99" 0. p99

let test_hist_single_sample () =
  let h = H.create () in
  H.observe h 0.0123;
  (* estimates are clamped to [min, max], so one sample reports exactly *)
  let p50, p90, p99 = H.percentiles h in
  feq "p50" 0.0123 p50;
  feq "p90" 0.0123 p90;
  feq "p99" 0.0123 p99;
  feq "mean" 0.0123 (H.mean h);
  feq "min" 0.0123 (H.min_value h);
  feq "max" 0.0123 (H.max_value h)

let test_hist_bucket_boundaries () =
  let h = H.create ~lo:1. ~growth:2. ~buckets:8 () in
  (* below lo: underflow bucket 0 *)
  Alcotest.(check int) "underflow" 0 (H.bucket_index h 0.5);
  (* exact boundaries land in the bucket they open *)
  Alcotest.(check int) "at lo" 1 (H.bucket_index h 1.);
  Alcotest.(check int) "at 2" 2 (H.bucket_index h 2.);
  Alcotest.(check int) "at 4" 3 (H.bucket_index h 4.);
  Alcotest.(check int) "just under 2" 1 (H.bucket_index h 1.9999);
  (* far beyond the range: overflow bucket *)
  Alcotest.(check int) "overflow" (H.num_buckets h - 1)
    (H.bucket_index h 1e12);
  (* the documented invariant at every index *)
  List.iter
    (fun v ->
      let i = H.bucket_index h v in
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "lower_bound <= %g" v)
          true
          (H.bucket_lower_bound h i <= v);
      if i < H.num_buckets h - 1 then
        Alcotest.(check bool)
          (Printf.sprintf "%g < next lower_bound" v)
          true
          (v < H.bucket_lower_bound h (i + 1)))
    [ 0.1; 1.; 1.5; 2.; 3.9999; 4.; 60.; 64.; 100. ]

let test_hist_quantile_resolution () =
  let h = H.create ~lo:1e-3 ~growth:2. ~buckets:64 () in
  List.iter (H.observe h) [ 1.; 1.; 1.; 1.; 1.; 1.; 1.; 1.; 1.; 100. ];
  let p50 = H.quantile h 0.5 in
  (* within one growth factor of the true median *)
  Alcotest.(check bool) "p50 near 1" true (p50 >= 0.5 && p50 <= 2.);
  let p99 = H.quantile h 0.99 in
  Alcotest.(check bool) "p99 near 100" true (p99 >= 50. && p99 <= 100.)

(* Invalid and sub-lo samples: counted in the underflow bucket, clamped
   so they never distort sum/min/quantiles (the documented rule). *)
let test_hist_underflow_clamp () =
  let h = H.create ~lo:1. ~growth:2. ~buckets:8 () in
  H.observe h Float.nan;
  H.observe h (-3.);
  H.observe h Float.infinity;
  H.observe h Float.neg_infinity;
  Alcotest.(check int) "all counted" 4 (H.count h);
  Alcotest.(check int) "all in underflow" 4 (H.underflow_count h);
  feq "sum stays finite" 0. (H.sum h);
  feq "mean stays finite" 0. (H.mean h);
  feq "min clamped to 0" 0. (H.min_value h);
  feq "max clamped to 0" 0. (H.max_value h);
  let p50, _, p99 = H.percentiles h in
  feq "p50 not distorted" 0. p50;
  feq "p99 not distorted" 0. p99;
  (* a genuine sub-lo sample keeps its true value in min/sum *)
  let g = H.create ~lo:1. ~growth:2. ~buckets:8 () in
  H.observe g 0.25;
  H.observe g 2.;
  Alcotest.(check int) "one underflow" 1 (H.underflow_count g);
  feq "true min kept" 0.25 (H.min_value g);
  feq "true sum kept" 2.25 (H.sum g);
  (* quantile estimates for the underflow bucket clamp to observed min *)
  Alcotest.(check bool) "quantile within [min, max]" true
    (let q = H.quantile g 0.25 in
     q >= 0.25 && q <= 2.)

let test_hist_state_roundtrip () =
  let h = H.create ~lo:1e-3 ~growth:2. ~buckets:16 () in
  List.iter (H.observe h) [ 0.5; 0.002; 7.; 7.; 1e9; -1. ];
  let j = H.to_json_state h in
  (* through the emitter and parser, as snapshots do *)
  match Result.bind (J.parse (J.to_string j)) H.of_json_state with
  | Error m -> Alcotest.failf "state roundtrip: %s" m
  | Ok h' ->
    Alcotest.(check bool) "same geometry" true (H.same_geometry h h');
    Alcotest.(check (array int)) "buckets" (H.bucket_counts h)
      (H.bucket_counts h');
    Alcotest.(check int) "count" (H.count h) (H.count h');
    feq "sum" (H.sum h) (H.sum h');
    feq "min" (H.min_value h) (H.min_value h');
    feq "max" (H.max_value h) (H.max_value h')

let test_hist_merge_exact () =
  let a = H.create () and b = H.create () in
  List.iter (H.observe a) [ 1.; 2.; 3. ];
  List.iter (H.observe b) [ 10.; 0.5 ];
  let m = H.merge a b in
  Alcotest.(check int) "count" 5 (H.count m);
  feq "min" 0.5 (H.min_value m);
  feq "max" 10. (H.max_value m);
  let direct = H.create () in
  List.iter (H.observe direct) [ 1.; 2.; 3.; 10.; 0.5 ];
  Alcotest.(check (array int)) "bucket-wise" (H.bucket_counts direct)
    (H.bucket_counts m)

let test_hist_merge_geometry_mismatch () =
  let a = H.create ~lo:1. () and b = H.create ~lo:2. () in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Histogram.merge: geometry mismatch") (fun () ->
      ignore (H.merge a b))

let merge_associative =
  (* small rationals so min/max/bucket counts are all exact *)
  let sample = QCheck.(list (map (fun n -> float_of_int n /. 7.) small_nat)) in
  QCheck.Test.make ~count:200 ~name:"histogram merge is associative"
    (QCheck.triple sample sample sample)
    (fun (xs, ys, zs) ->
      let mk vs =
        let h = H.create () in
        List.iter (H.observe h) vs;
        h
      in
      let a = mk xs and b = mk ys and c = mk zs in
      let l = H.merge (H.merge a b) c and r = H.merge a (H.merge b c) in
      H.bucket_counts l = H.bucket_counts r
      && H.count l = H.count r
      && H.min_value l = H.min_value r
      && H.max_value l = H.max_value r)

(* [observe_int] is the allocation-free path the LP engine feeds pivot
   counts through; it must be indistinguishable from observing the
   same value as a float through every accessor (integer counts are
   float-exact far past any realistic pivot total). *)
let observe_int_matches_observe =
  let sample = QCheck.(list (int_bound 5000)) in
  QCheck.Test.make ~count:300 ~name:"observe_int equals observe on ints"
    sample (fun ns ->
      let hi = H.create ~lo:1. ~growth:2. ~buckets:24 () in
      let hf = H.create ~lo:1. ~growth:2. ~buckets:24 () in
      List.iter (H.observe_int hi) ns;
      List.iter (fun n -> H.observe hf (float_of_int n)) ns;
      H.bucket_counts hi = H.bucket_counts hf
      && H.count hi = H.count hf
      && H.sum hi = H.sum hf
      && H.min_value hi = H.min_value hf
      && H.max_value hi = H.max_value hf
      && H.percentiles hi = H.percentiles hf
      && J.to_string (H.to_json_state hi) = J.to_string (H.to_json_state hf))

let test_observe_int_mixed () =
  (* int and float observations interleave on one histogram; negatives
     clamp to zero exactly like [observe] *)
  let h = H.create ~lo:1. ~growth:2. ~buckets:24 () in
  H.observe_int h 3;
  H.observe h 0.5;
  H.observe_int h (-2);
  Alcotest.(check int) "count" 3 (H.count h);
  feq "sum" 3.5 (H.sum h);
  feq "min" 0. (H.min_value h);
  feq "max" 3. (H.max_value h);
  let h' = H.copy h in
  Alcotest.(check int) "copy carries int cells" (H.count h) (H.count h');
  feq "copy sum" (H.sum h) (H.sum h');
  H.reset h;
  Alcotest.(check int) "reset clears int cells" 0 (H.count h);
  feq "reset sum" 0. (H.sum h)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics_registry () =
  let c = Telemetry.Metrics.counter "test.registry.counter" in
  let before = Telemetry.Metrics.value c in
  Telemetry.Metrics.incr c;
  Telemetry.Metrics.add c 2;
  Alcotest.(check int) "incremented" (before + 3) (Telemetry.Metrics.value c);
  (* same name resolves to the same cell *)
  let c' = Telemetry.Metrics.counter "test.registry.counter" in
  Telemetry.Metrics.incr c';
  Alcotest.(check int) "shared" (before + 4) (Telemetry.Metrics.value c);
  (* kind clash is a programming error *)
  (try
     ignore (Telemetry.Metrics.histogram "test.registry.counter");
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  let h = Telemetry.Metrics.histogram "test.registry.hist" in
  Telemetry.Metrics.observe h 1.;
  Alcotest.(check bool) "registered" true
    (List.mem_assoc "test.registry.hist" (Telemetry.Metrics.histograms ()))

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [ ("a", J.Int 42);
        ("b", J.Float 1.5);
        ("c", J.String "he\"llo\n\t\\world");
        ("d", J.List [ J.Bool true; J.Bool false; J.Null ]);
        ("e", J.Obj [ ("nested", J.List [ J.Int (-7); J.Float 1e-9 ]) ]);
        ("f", J.List []);
      ]
  in
  (match J.parse (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "compact" true (J.equal v v')
  | Error m -> Alcotest.failf "compact parse: %s" m);
  match J.parse (J.to_string_pretty v) with
  | Ok v' -> Alcotest.(check bool) "pretty" true (J.equal v v')
  | Error m -> Alcotest.failf "pretty parse: %s" m

let test_json_parse_standard () =
  (match J.parse "  [1, 2.5e2, \"\\u0041\", true, null] " with
  | Ok (J.List [ J.Int 1; J.Float 250.; J.String "A"; J.Bool true; J.Null ])
    ->
    ()
  | Ok other -> Alcotest.failf "unexpected value: %s" (J.to_string other)
  | Error m -> Alcotest.failf "parse: %s" m);
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "expected parse failure on %S" s
      | Error _ -> ())
    [ "{"; "tru"; "1.2.3"; "[1,]"; "\"unterminated"; "{\"a\" 1}"; "" ]

let test_json_nonfinite () =
  Alcotest.(check string) "nan" "null" (J.to_string (J.Float Float.nan));
  Alcotest.(check string)
    "inf" "null"
    (J.to_string (J.Float Float.infinity))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_disabled_is_free () =
  (* not started: no events are collected *)
  let r = Telemetry.Span.with_span "untracked" (fun () -> 7) in
  Alcotest.(check int) "result" 7 r;
  Alcotest.(check bool) "no event" true
    (not
       (List.exists
          (fun e -> e.Telemetry.Span.name = "untracked")
          (Telemetry.Span.events ())))

let test_span_nesting () =
  Telemetry.Span.start ();
  Telemetry.Span.with_span "outer" (fun () ->
      Telemetry.Span.with_span "inner" (fun () -> ()));
  Telemetry.Span.stop ();
  let evs = Telemetry.Span.events () in
  let find n = List.find (fun e -> e.Telemetry.Span.name = n) evs in
  Alcotest.(check int) "two events" 2 (List.length evs);
  Alcotest.(check string) "outer at root" "" (find "outer").Telemetry.Span.parent;
  Alcotest.(check string)
    "inner nested" "outer"
    (find "inner").Telemetry.Span.parent;
  Alcotest.(check bool) "inner within outer" true
    ((find "inner").Telemetry.Span.ts >= (find "outer").Telemetry.Span.ts)

exception Boom

(* The Fun.protect path: a raising [f] must still record its span and
   restore the parent stack, so later spans nest correctly. *)
let test_span_exception_records_and_restores () =
  Telemetry.Span.start ();
  Telemetry.Span.with_span "outer" (fun () ->
      (try
         Telemetry.Span.with_span "failing" (fun () -> raise Boom)
       with Boom -> ());
      Alcotest.(check (list string))
        "stack restored after raise" [ "outer" ]
        (Telemetry.Span.context ());
      Telemetry.Span.with_span "after" (fun () -> ()));
  Telemetry.Span.stop ();
  Alcotest.(check (list string)) "stack empty at root" []
    (Telemetry.Span.context ());
  let evs = Telemetry.Span.events () in
  let find n = List.find (fun e -> e.Telemetry.Span.name = n) evs in
  Alcotest.(check string)
    "raising span recorded with its parent" "outer"
    (find "failing").Telemetry.Span.parent;
  Alcotest.(check string)
    "later sibling sees the right parent" "outer"
    (find "after").Telemetry.Span.parent

(* ------------------------------------------------------------------ *)
(* Chrome trace: well-formed, and deterministic across domain counts   *)
(* ------------------------------------------------------------------ *)

(* A real instrumented workload: one figure sweep from a cold cache.
   Every memo key is distinct per pool item, so the spans fired inside
   compute thunks are the same set however the pool schedules them. *)
let trace_of_run ~domains =
  Engine.Memo.clear_all ();
  Engine.Pool.set_default_domains domains;
  Telemetry.Span.start ();
  ignore (Bidir.Figures.fig3 ~samples:9 ());
  Telemetry.Span.stop ();
  Engine.Pool.set_default_domains 1;
  Telemetry.Span.events ()

let test_chrome_trace_wellformed () =
  let evs = trace_of_run ~domains:1 in
  let s = Telemetry.Sink.chrome_trace_string evs in
  match J.parse s with
  | Error m -> Alcotest.failf "trace JSON does not parse: %s" m
  | Ok j -> (
    match J.member "traceEvents" j with
    | Some (J.List events) ->
      Alcotest.(check bool) "has events" true (events <> []);
      List.iter
        (fun e ->
          List.iter
            (fun field ->
              if J.member field e = None then
                Alcotest.failf "event missing %S: %s" field (J.to_string e))
            [ "name"; "cat"; "ph"; "ts"; "dur"; "pid"; "tid" ];
          match J.member "ph" e with
          | Some (J.String "X") -> ()
          | _ -> Alcotest.fail "ph must be \"X\"")
        events
    | _ -> Alcotest.fail "no traceEvents array")

(* Pool-management spans (cat "pool") describe scheduling, which depends
   on the chunk count; everything else must match exactly. *)
let span_multiset evs =
  List.filter (fun e -> e.Telemetry.Span.cat <> "pool") evs
  |> List.map (fun e -> e.Telemetry.Span.name)
  |> List.sort compare

let test_trace_deterministic_across_domains () =
  let seq = span_multiset (trace_of_run ~domains:1) in
  let par = span_multiset (trace_of_run ~domains:4) in
  Alcotest.(check bool) "nonempty" true (seq <> []);
  Alcotest.(check (list string)) "same spans modulo scheduling" seq par

(* ------------------------------------------------------------------ *)
(* Netsim metrics on the shared histogram type                         *)
(* ------------------------------------------------------------------ *)

let test_netsim_block_bits () =
  let m = Netsim.Metrics.create () in
  Netsim.Metrics.record_block m ~symbols:100 ~bits_a:500 ~bits_b:300
    ~delivered_a:true ~delivered_b:true;
  Netsim.Metrics.record_block m ~symbols:100 ~bits_a:500 ~bits_b:300
    ~delivered_a:false ~delivered_b:false;
  let h = Netsim.Metrics.block_bits_histogram m in
  Alcotest.(check int) "one sample per block" 2 (Telemetry.Histogram.count h);
  feq "max is full delivery" 800. (Telemetry.Histogram.max_value h);
  feq "min is total outage" 0. (Telemetry.Histogram.min_value h)

let test_netsim_metrics_merge () =
  let mk delivered =
    let m = Netsim.Metrics.create () in
    Netsim.Metrics.record_block m ~symbols:50 ~bits_a:100 ~bits_b:100
      ~delivered_a:delivered ~delivered_b:delivered;
    if not delivered then Netsim.Metrics.record_phase_outage m ~phase:1;
    m
  in
  let merged = Netsim.Metrics.merge (mk true) (mk false) in
  Alcotest.(check int) "blocks" 2 (Netsim.Metrics.blocks merged);
  Alcotest.(check int) "symbols" 100 (Netsim.Metrics.symbols merged);
  Alcotest.(check int) "delivered" 200 (Netsim.Metrics.delivered_bits merged);
  Alcotest.(check (list (pair int int)))
    "outages" [ (1, 1) ]
    (Netsim.Metrics.phase_outages merged);
  Alcotest.(check int) "histogram carried" 2
    (Telemetry.Histogram.count (Netsim.Metrics.block_bits_histogram merged))

(* ------------------------------------------------------------------ *)
(* Resource accounting                                                 *)
(* ------------------------------------------------------------------ *)

(* allocate enough to be visible through any GC state *)
let churn () =
  let junk = ref [] in
  for i = 0 to 2_000 do
    junk := Array.make 16 (float_of_int i) :: !junk
  done;
  ignore (Sys.opaque_identity !junk)

let test_resource_delta_monotone () =
  let s0 = Telemetry.Resource.sample () in
  churn ();
  let d1 = Telemetry.Resource.delta_since s0 in
  Alcotest.(check bool) "minor words grew" true
    (d1.Telemetry.Resource.minor_words > 0.);
  Alcotest.(check bool) "alloc bytes grew" true
    (d1.Telemetry.Resource.alloc_bytes > 0.);
  Alcotest.(check bool) "no negative fields" true
    (d1.Telemetry.Resource.major_words >= 0.
    && d1.Telemetry.Resource.promoted_words >= 0.
    && d1.Telemetry.Resource.minor_collections >= 0
    && d1.Telemetry.Resource.major_collections >= 0);
  churn ();
  (* the runtime counters are cumulative, so a later delta from the
     same sample dominates an earlier one *)
  let d2 = Telemetry.Resource.delta_since s0 in
  Alcotest.(check bool) "monotone minor words" true
    (d2.Telemetry.Resource.minor_words >= d1.Telemetry.Resource.minor_words);
  Alcotest.(check bool) "monotone alloc bytes" true
    (d2.Telemetry.Resource.alloc_bytes >= d1.Telemetry.Resource.alloc_bytes);
  Alcotest.(check bool) "monotone collections" true
    (d2.Telemetry.Resource.minor_collections
     >= d1.Telemetry.Resource.minor_collections
    && d2.Telemetry.Resource.major_collections
       >= d1.Telemetry.Resource.major_collections)

let test_resource_account_counters () =
  let minor = Telemetry.Metrics.counter "gc.minor_words" in
  let bytes = Telemetry.Metrics.counter "gc.alloc_bytes" in
  let m0 = Telemetry.Metrics.value minor in
  let b0 = Telemetry.Metrics.value bytes in
  let r = Telemetry.Resource.account (fun () -> churn (); 42) in
  Alcotest.(check int) "result" 42 r;
  Alcotest.(check bool) "gc.minor_words accumulated" true
    (Telemetry.Metrics.value minor > m0);
  Alcotest.(check bool) "gc.alloc_bytes accumulated" true
    (Telemetry.Metrics.value bytes > b0)

(* The marks behind [linprog.alloc_bytes]: a minor collection between
   them costs nothing (through [Gc.allocated_bytes] it read 7/8 of the
   minor heap, about 1.8 MB), while allocation between them counts one
   per minor word and 8 per word allocated on the major heap. *)
let test_alloc_marks_collection_proof () =
  churn ();
  let b0 = Telemetry.Resource.alloc_mark_begin () in
  Gc.minor ();
  let across_gc = Telemetry.Resource.alloc_mark_end () -. b0 in
  Alcotest.(check bool)
    (Printf.sprintf "minor collection read %.0f" across_gc)
    true (across_gc < 64.);
  let b0 = Telemetry.Resource.alloc_mark_begin () in
  ignore (Sys.opaque_identity (Array.make 100 0));
  let small = Telemetry.Resource.alloc_mark_end () -. b0 in
  Alcotest.(check bool)
    (Printf.sprintf "101 minor words read %.0f" small)
    true (small >= 101. && small < 101. +. 64.);
  let b0 = Telemetry.Resource.alloc_mark_begin () in
  ignore (Sys.opaque_identity (Array.make 1000 0));
  let large = Telemetry.Resource.alloc_mark_end () -. b0 in
  Alcotest.(check bool)
    (Printf.sprintf "1001 major words read %.0f" large)
    true (large >= 8008. && large < 8008. +. 64.)

(* A span's [gc.alloc_bytes] is read through the same marks: a minor
   collection inside the span leaves it at the few words the span's own
   bookkeeping costs (through [Gc.allocated_bytes] it read about 1.8 MB
   after [churn]). The same holds for a bare [measure]. *)
let test_span_alloc_ignores_collections () =
  churn ();
  Telemetry.Resource.with_enabled true (fun () ->
      Telemetry.Span.start ();
      Telemetry.Span.with_span "gc-span" Gc.minor;
      Telemetry.Span.stop ());
  let ev =
    List.find
      (fun e -> e.Telemetry.Span.name = "gc-span")
      (Telemetry.Span.events ())
  in
  (match List.assoc_opt "gc.alloc_bytes" ev.Telemetry.Span.args with
  | Some (J.Float b) ->
    Alcotest.(check bool)
      (Printf.sprintf "span across a minor collection read %.0f" b)
      true (b < 1024.)
  | _ -> Alcotest.fail "span lacks gc.alloc_bytes arg");
  churn ();
  let (), d = Telemetry.Resource.measure Gc.minor in
  Alcotest.(check bool)
    (Printf.sprintf "measure across a minor collection read %.0f"
       d.Telemetry.Resource.alloc_bytes)
    true
    (d.Telemetry.Resource.alloc_bytes < 1024.)

let test_resource_span_args () =
  Telemetry.Resource.with_enabled true (fun () ->
      Telemetry.Span.start ();
      Telemetry.Span.with_span "alloc-span" churn;
      Telemetry.Span.stop ());
  let ev =
    List.find
      (fun e -> e.Telemetry.Span.name = "alloc-span")
      (Telemetry.Span.events ())
  in
  let arg k = List.assoc_opt k ev.Telemetry.Span.args in
  (match arg "gc.minor_words" with
  | Some (J.Float w) ->
    Alcotest.(check bool) "span minor words positive" true (w > 0.)
  | _ -> Alcotest.fail "span lacks gc.minor_words arg");
  (match arg "gc.alloc_bytes" with
  | Some (J.Float b) ->
    Alcotest.(check bool) "span alloc bytes positive" true (b > 0.)
  | _ -> Alcotest.fail "span lacks gc.alloc_bytes arg");
  (* with tracking off, spans stay lean *)
  Telemetry.Span.start ();
  Telemetry.Span.with_span "lean-span" churn;
  Telemetry.Span.stop ();
  let lean =
    List.find
      (fun e -> e.Telemetry.Span.name = "lean-span")
      (Telemetry.Span.events ())
  in
  Alcotest.(check bool) "no gc args when disabled" true
    (List.assoc_opt "gc.minor_words" lean.Telemetry.Span.args = None)

(* ------------------------------------------------------------------ *)
(* Span analyzer: self time, flamegraph export                         *)
(* ------------------------------------------------------------------ *)

let spin seconds =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < seconds do
    ignore (Sys.opaque_identity 0)
  done

(* On a single-domain trace self time telescopes: every child interval
   is contained in (and counted against) its parent, so the sum of self
   times equals the summed root durations up to float addition noise. *)
let test_self_time_conservation () =
  Telemetry.Span.start ();
  Telemetry.Span.with_span "root" (fun () ->
      spin 0.004;
      Telemetry.Span.with_span "a" (fun () ->
          spin 0.003;
          Telemetry.Span.with_span "a1" (fun () -> spin 0.002));
      Telemetry.Span.with_span "b" (fun () -> spin 0.003));
  Telemetry.Span.stop ();
  let t = Telemetry.Analyze.analyze (Telemetry.Span.events ()) in
  let total = Telemetry.Analyze.total_self t in
  let root = Telemetry.Analyze.root_dur t in
  Alcotest.(check bool) "root has duration" true (root > 0.005);
  Alcotest.(check bool)
    (Printf.sprintf "self times telescope (total %.6f vs root %.6f)" total
       root)
    true
    (Float.abs (total -. root) <= 1e-6);
  (* every instance got a positive-or-zero self share *)
  List.iter
    (fun nd ->
      Alcotest.(check bool) "self >= 0" true (nd.Telemetry.Analyze.self >= 0.))
    (Telemetry.Analyze.nodes t)

let test_collapsed_stacks_wellformed () =
  Telemetry.Span.start ();
  Telemetry.Span.with_span "top" (fun () ->
      spin 0.002;
      Telemetry.Span.with_span "mid" (fun () ->
          spin 0.002;
          Telemetry.Span.with_span "leaf" (fun () -> spin 0.002)));
  Telemetry.Span.stop ();
  let t = Telemetry.Analyze.analyze (Telemetry.Span.events ()) in
  let out = Telemetry.Analyze.collapsed t in
  Alcotest.(check bool) "non-empty" true (String.length out > 0);
  let recorded =
    List.map (String.concat ";") (Telemetry.Analyze.paths t)
  in
  let lines = String.split_on_char '\n' (String.trim out) in
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "malformed collapsed line %S" line
      | Some i ->
        let path = String.sub line 0 i in
        let weight =
          String.sub line (i + 1) (String.length line - i - 1)
        in
        Alcotest.(check bool)
          (Printf.sprintf "weight %S is a positive int" weight)
          true
          (match int_of_string_opt weight with
          | Some w -> w > 0
          | None -> false);
        Alcotest.(check bool)
          (Printf.sprintf "path %S is a recorded span path" path)
          true
          (List.mem path recorded))
    lines;
  (* focus re-roots at the named span and drops unrelated paths *)
  let focused = Telemetry.Analyze.collapsed ~focus:"mid" t in
  List.iter
    (fun line ->
      if String.trim line <> "" then
        Alcotest.(check bool)
          (Printf.sprintf "focused line %S starts at mid" line)
          true
          (String.length line >= 3 && String.sub line 0 3 = "mid"))
    (String.split_on_char '\n' (String.trim focused))

(* Random span trees: whatever the nesting (including repeated names,
   which stress parent-instance matching), the reconstructed path set
   must be prefix-closed and self times must telescope within the
   root total. *)
type span_tree = T of int * span_tree list

let gen_span_tree =
  QCheck.Gen.(
    sized_size (int_bound 10) @@ fix (fun self n ->
        map2
          (fun label kids -> T (label, kids))
          (int_bound 4)
          (if n <= 0 then return []
           else list_size (int_bound 3) (self (n / 2)))))

let arbitrary_span_tree =
  let rec print (T (l, kids)) =
    Printf.sprintf "T(%d,[%s])" l (String.concat ";" (List.map print kids))
  in
  QCheck.make ~print gen_span_tree

let analyzer_paths_prefix_closed =
  QCheck.Test.make ~count:100 ~name:"analyzer paths are prefix-closed"
    arbitrary_span_tree (fun tree ->
      Telemetry.Span.start ();
      (* each span spins long enough that nested starts are separated by
         more than the analyzer's containment slack — instantaneous
         spans with colliding timestamps are unattributable in any
         trace format, not something the heuristic should untangle *)
      let rec exec (T (label, kids)) =
        Telemetry.Span.with_span ("s" ^ string_of_int label) (fun () ->
            spin 5e-5;
            List.iter exec kids)
      in
      exec tree;
      Telemetry.Span.stop ();
      let t = Telemetry.Analyze.analyze (Telemetry.Span.events ()) in
      let paths = Telemetry.Analyze.paths t in
      let rec prefixes = function
        | [] | [ _ ] -> []
        | x :: rest ->
          [ x ] :: List.map (fun p -> x :: p) (prefixes rest)
      in
      List.for_all
        (fun p -> List.for_all (fun pre -> List.mem pre paths) (prefixes p))
        paths
      && Telemetry.Analyze.total_self t
         <= Telemetry.Analyze.root_dur t +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Resource tracking is observation-only                               *)
(* ------------------------------------------------------------------ *)

(* The invariant the whole layer rests on: enabling GC/allocation
   tracking changes nothing about computed results, at any domain
   count. Rendered figure text is the full value surface. *)
let test_resource_byte_identity () =
  let render ~resource ~domains =
    Engine.Memo.clear_all ();
    Engine.Pool.set_default_domains domains;
    Telemetry.Resource.set_enabled resource;
    Fun.protect
      ~finally:(fun () ->
        Telemetry.Resource.set_enabled false;
        Engine.Pool.set_default_domains 1)
      (fun () -> Report.render_figure (Bidir.Figures.fig3 ~samples:9 ()))
  in
  let off1 = render ~resource:false ~domains:1 in
  let on1 = render ~resource:true ~domains:1 in
  let on4 = render ~resource:true ~domains:4 in
  let off4 = render ~resource:false ~domains:4 in
  Alcotest.(check string) "tracking on = off (1 domain)" off1 on1;
  Alcotest.(check string) "tracking on: 4 domains = 1 domain" on1 on4;
  Alcotest.(check string) "tracking off: 4 domains = 1 domain" off1 off4

(* ------------------------------------------------------------------ *)
(* JSON: full escape set, surrogate pairs, exponents                    *)
(* ------------------------------------------------------------------ *)

let test_json_escapes () =
  (* a surrogate pair decodes to one astral code point (U+1F600) *)
  (match J.parse "\"\\uD83D\\uDE00\"" with
  | Ok (J.String s) ->
    Alcotest.(check string) "astral plane" "\xf0\x9f\x98\x80" s
  | Ok other -> Alcotest.failf "unexpected: %s" (J.to_string other)
  | Error m -> Alcotest.failf "surrogate pair: %s" m);
  (* the remaining simple escapes *)
  (match J.parse "\"\\b\\f\\/\\r\"" with
  | Ok (J.String s) -> Alcotest.(check string) "simple escapes" "\b\x0c/\r" s
  | _ -> Alcotest.fail "simple escapes");
  (* a lone high surrogate is tolerated (kept as its own code point)
     rather than failing the whole live file *)
  (match J.parse "\"a\\uD800b\"" with
  | Ok (J.String s) ->
    Alcotest.(check bool) "lone surrogate tolerated" true
      (String.length s > 2)
  | _ -> Alcotest.fail "lone surrogate");
  (* exponents in every spelling *)
  List.iter
    (fun (src, expect) ->
      match J.parse src with
      | Ok (J.Float f) -> feq src expect f
      | Ok (J.Int i) -> feq src expect (float_of_int i)
      | _ -> Alcotest.failf "number %s" src)
    [ ("1e3", 1000.); ("2.5E-2", 0.025); ("-1.25e+2", -125.);
      ("0.0001", 0.0001) ];
  (* malformed escapes and numbers fail cleanly *)
  List.iter
    (fun s ->
      match J.parse s with
      | Ok _ -> Alcotest.failf "expected failure on %S" s
      | Error _ -> ())
    [ "\"\\u12\""; "\"\\u1_23\""; "\"\\q\""; "+1"; ".5"; "1e"; "-" ]

(* parse . print = id on arbitrary values: what live files rely on. *)
let json_gen =
  let open QCheck.Gen in
  (* printable-plus-escapes strings; keep them short *)
  let str =
    string_size ~gen:
      (oneof [ char_range 'a' 'z'; return '"'; return '\\'; return '\n';
               return '\t'; return '\xc3' ])
      (int_bound 8)
  in
  (* finite floats that round-trip: dyadic rationals scaled by 2^k *)
  let fin_float =
    map2 (fun m k -> ldexp (float_of_int m) (k - 20))
      (int_range (-10000) 10000) (int_bound 40)
  in
  sized_size (int_bound 4) @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [ return J.Null; map (fun b -> J.Bool b) bool;
            map (fun i -> J.Int i) int; map (fun f -> J.Float f) fin_float;
            map (fun s -> J.String s) str ]
      else
        oneof
          [ map (fun l -> J.List l) (list_size (int_bound 4) (self (n / 2)));
            map (fun kvs -> J.Obj kvs)
              (list_size (int_bound 4) (pair str (self (n / 2)))) ])

let json_roundtrip_prop =
  QCheck.Test.make ~count:500 ~name:"JSON parse . print = id"
    (QCheck.make ~print:J.to_string json_gen)
    (fun v ->
      match (J.parse (J.to_string v), J.parse (J.to_string_pretty v)) with
      | Ok c, Ok p -> J.equal v c && J.equal v p
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Live file: writer, strict reader and frame                          *)
(* ------------------------------------------------------------------ *)

module L = Telemetry.Live
module Snap = Telemetry.Snapshot

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* run [f] with a fresh temporary path, closing any writer it left open *)
let with_live_file f =
  let path = Filename.temp_file "bidir-test-live" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      L.close_live ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let records_of path =
  List.map
    (fun line ->
      match J.parse line with
      | Ok j -> j
      | Error m -> Alcotest.failf "live line not JSON: %s" m)
    (read_lines path)

let kind j =
  match J.member "record" j with Some (J.String k) -> k | _ -> "?"

let heartbeat_registry j =
  match Option.map Snap.of_json (J.member "registry" j) with
  | Some (Ok r) -> r
  | _ -> Alcotest.fail "heartbeat without a snapshot registry"

let hist_of values =
  let h = H.create () in
  List.iter (H.observe h) values;
  h

let int_field k j =
  match J.member k j with
  | Some (J.Int i) -> i
  | _ -> Alcotest.failf "field %S missing" k

let test_live_file_roundtrip () =
  let st = L.create () in
  with_live_file (fun path ->
      L.open_live path;
      L.note_progress ~name:"unit" ~completed:1 ~total:2 ~rate:10.
        ~eta_seconds:0.1 ();
      L.pulse_live ();
      L.note_progress ~name:"unit" ~completed:2 ~total:2 ~rate:10.
        ~eta_seconds:0. ();
      L.pulse_live ();
      L.close_live ();
      L.close_live () (* idempotent *);
      List.iter (L.feed_line st) (read_lines path));
  Alcotest.(check int) "no parse errors" 0 (L.parse_errors st);
  Alcotest.(check int) "three heartbeats" 3 (L.heartbeats st);
  Alcotest.(check bool) "finished" true (L.finished st);
  Alcotest.(check bool) "monotone" true (L.monotone st);
  (match L.progress st with
  | Some p ->
    Alcotest.(check int) "latest completed" 2 p.L.completed;
    Alcotest.(check int) "total" 2 p.L.total
  | None -> Alcotest.fail "no progress survived the round trip");
  (* the frame is a pure function of the file *)
  Alcotest.(check string) "render deterministic" (L.render st) (L.render st);
  match J.parse (J.to_string (L.to_json st)) with
  | Ok j ->
    Alcotest.(check bool) "frame names the schema" true
      (J.member "schema" j = Some (J.String "bidir-live/2"))
  | Error m -> Alcotest.failf "to_json not parseable: %s" m

(* a heartbeat line carrying [counters] and [histograms] as a registry *)
let heartbeat_line ?(t = 1.0) ~seq counters histograms =
  J.to_string
    (J.Obj
       [ ("record", J.String "heartbeat");
         ("t", J.Float t);
         ("seq", J.Int seq);
         ( "registry",
           Snap.to_json
             { Snap.label = ""; created_at = t; counters; histograms } );
       ])

let test_live_monotone_violation () =
  let st = L.create () in
  L.feed_string st
    "{\"schema\":\"bidir-live/2\",\"record\":\"start\",\"t\":1.0,\"interval\":0.0}\n\
     {\"record\":\"progress\",\"t\":2.0,\"name\":\"x\",\"completed\":5,\"total\":9,\"rate\":1.0,\"ci\":null,\"ci_target\":null,\"eta\":null}\n\
     {\"record\":\"progress\",\"t\":3.0,\"name\":\"x\",\"completed\":3,\"total\":9,\"rate\":1.0,\"ci\":null,\"ci_target\":null,\"eta\":null}\n";
  Alcotest.(check bool) "regressing progress flagged" false (L.monotone st);
  let st2 = L.create () in
  List.iter (L.feed_line st2)
    [ heartbeat_line ~seq:2 [] []; heartbeat_line ~t:2.0 ~seq:2 [] [] ];
  Alcotest.(check bool) "non-increasing seq flagged" false (L.monotone st2);
  (* garbage lines count as parse errors without killing the fold *)
  let st3 = L.create () in
  L.feed_line st3 "not json at all";
  L.feed_line st3 (heartbeat_line ~seq:1 [ ("c", 2) ] []);
  Alcotest.(check int) "parse error counted" 1 (L.parse_errors st3);
  Alcotest.(check (list (pair string int))) "later lines still folded"
    [ ("c", 2) ] (L.registry st3).Snap.counters

let test_live_strict_required_fields () =
  (* a record missing a required field (or carrying it ill-typed) is a
     parse error and is skipped whole *)
  let cases =
    [ "{\"record\":\"progress\",\"t\":2.0,\"name\":\"x\",\"total\":9,\"rate\":1.0}";
      "{\"record\":\"progress\",\"t\":2.0,\"name\":\"x\",\"completed\":5,\"rate\":1.0}";
      "{\"record\":\"progress\",\"t\":2.0,\"name\":\"x\",\"completed\":\"5\",\"total\":9}";
      "{\"record\":\"start\",\"t\":2.0,\"interval\":0.0}";
      "{\"record\":\"heartbeat\",\"t\":2.0,\"registry\":{\"schema\":\"bidir-snapshot/1\",\"counters\":{\"c\":7},\"histograms\":{}}}";
      "{\"record\":\"heartbeat\",\"t\":2.0,\"seq\":1}";
      "{\"record\":\"final\",\"t\":2.0,\"events\":1}";
      "{\"record\":\"final\",\"t\":2.0,\"heartbeats\":1}";
      "{\"t\":2.0,\"seq\":3}";
      "{\"record\":7,\"t\":2.0}";
    ]
  in
  let st = L.create () in
  List.iter (L.feed_line st) cases;
  Alcotest.(check int) "every malformed record counted"
    (List.length cases) (L.parse_errors st);
  Alcotest.(check int) "none folded" 0 (L.records st);
  Alcotest.(check (list (pair string int))) "no counter leaked" []
    (L.registry st).Snap.counters;
  Alcotest.(check bool) "no progress leaked" true (L.progress st = None);
  Alcotest.(check bool) "not finished" false (L.finished st);
  Alcotest.(check int) "no heartbeat" 0 (L.heartbeats st);
  Alcotest.(check (float 0.)) "last_t untouched by skipped records" 0.
    (L.last_t st);
  (* valid records around a bad one still fold *)
  let st2 = L.create () in
  List.iter (L.feed_line st2)
    [ heartbeat_line ~seq:1 [ ("c", 2) ] [];
      "{\"record\":\"progress\",\"t\":2.0,\"name\":\"x\"}";
      heartbeat_line ~t:3.0 ~seq:2 [ ("c", 5) ] [] ];
  Alcotest.(check int) "one parse error" 1 (L.parse_errors st2);
  Alcotest.(check (list (pair string int))) "valid heartbeats folded"
    [ ("c", 5) ] (L.registry st2).Snap.counters;
  (* unknown record kinds remain forward-compatible no-ops *)
  let st3 = L.create () in
  L.feed_line st3 "{\"record\":\"hologram\",\"t\":1.0}";
  Alcotest.(check int) "unknown kind is not an error" 0 (L.parse_errors st3);
  Alcotest.(check int) "unknown kind still counts as a record" 1
    (L.records st3)

let test_live_old_and_malformed_registries () =
  (* a bidir-live/1 heartbeat (counter deltas and digests, no registry)
     and heartbeats whose registry Snapshot.of_json rejects: one parse
     error each, and no state moves — not the seq, the heartbeat count,
     the last timestamp, nor the valid metrics next to a bad one *)
  let bad_hist = H.to_json_state (hist_of [ 1.0 ]) in
  let bad_hist =
    match bad_hist with
    | J.Obj fields -> J.Obj (List.remove_assoc "lo" fields)
    | j -> j
  in
  let registry counters histograms =
    J.to_string
      (J.Obj
         [ ("record", J.String "heartbeat");
           ("t", J.Float 5.0);
           ("seq", J.Int 1);
           ( "registry",
             J.Obj
               [ ("schema", J.String "bidir-snapshot/1");
                 ("counters", J.Obj counters);
                 ("histograms", J.Obj histograms);
               ] );
         ])
  in
  let lines =
    [ "{\"schema\":\"bidir-live/1\",\"record\":\"start\",\"t\":5.0,\"interval\":0.0}";
      "{\"record\":\"heartbeat\",\"t\":5.0,\"seq\":1,\"counters\":{\"c\":2},\"histograms\":{\"h\":{\"count\":1,\"sum\":1.0,\"p50\":1.0,\"p90\":1.0,\"p99\":1.0}}}";
      registry [ ("c", J.Int 2); ("d", J.String "3") ] [];
      registry [ ("c", J.Int 2) ]
        [ ("good", H.to_json_state (hist_of [ 1.0 ])); ("bad", bad_hist) ];
      "{\"record\":\"heartbeat\",\"t\":5.0,\"seq\":1,\"registry\":{\"counters\":{},\"histograms\":{}}}";
      "{\"record\":\"heartbeat\",\"t\":5.0,\"seq\":1,\"registry\":[]}";
    ]
  in
  let st = L.create () in
  List.iteri
    (fun i line ->
      L.feed_line st line;
      Alcotest.(check int)
        (Printf.sprintf "line %d is one parse error" i)
        (i + 1) (L.parse_errors st))
    lines;
  Alcotest.(check int) "nothing applied" 0 (L.records st);
  Alcotest.(check int) "no heartbeat counted" 0 (L.heartbeats st);
  Alcotest.(check (float 0.)) "last_t unmoved" 0. (L.last_t st);
  let reg = L.registry st in
  Alcotest.(check int) "no counter" 0 (List.length reg.Snap.counters);
  Alcotest.(check int) "no histogram" 0 (List.length reg.Snap.histograms);
  (* the rejected seq 1 did not advance the reader: a valid seq 1 is
     still monotone *)
  L.feed_line st (heartbeat_line ~seq:1 [] []);
  Alcotest.(check bool) "seq not advanced by rejected heartbeats" true
    (L.monotone st)

let test_live_registry_replaces_by_name () =
  (* counters are cumulative and histograms full state: a later entry
     replaces the earlier one of the same name, nothing is summed, and a
     name the later heartbeat leaves out keeps its value *)
  let first = hist_of [ 1.0; 2.0 ] and later = hist_of [ 1.0; 2.0; 40.0 ] in
  let st = L.create () in
  List.iter (L.feed_line st)
    [ heartbeat_line ~seq:1 [ ("a", 5); ("b", 1) ] [ ("h", first) ];
      heartbeat_line ~seq:2 [ ("a", 7) ] [ ("h", later) ] ];
  let reg = L.registry st in
  Alcotest.(check (list (pair string int))) "counters replaced, not summed"
    [ ("a", 7); ("b", 1) ] reg.Snap.counters;
  let expected =
    { Snap.label = ""; created_at = 0.; counters = reg.Snap.counters;
      histograms = [ ("h", later) ] }
  in
  Alcotest.(check bool) "histogram is the later full state" true
    (Snap.identical (Snap.diff expected reg))

let test_live_no_writer_noop () =
  L.close_live ();
  Alcotest.(check bool) "no writer" false (L.is_open ());
  let events = Telemetry.Metrics.counter "telemetry.stream.events"
  and beats = Telemetry.Metrics.counter "telemetry.stream.heartbeats" in
  let e0 = Telemetry.Metrics.value events
  and b0 = Telemetry.Metrics.value beats in
  L.note_progress ~name:"x" ~completed:1 ~total:2 ();
  L.pulse_live ();
  (* with no writer the calls return at once, from any domain *)
  Domain.join
    (Domain.spawn (fun () ->
         L.note_progress ~name:"y" ~completed:1 ~total:2 ();
         L.pulse_live ()));
  L.close_live ();
  Alcotest.(check int) "no progress record counted" e0
    (Telemetry.Metrics.value events);
  Alcotest.(check int) "no heartbeat counted" b0
    (Telemetry.Metrics.value beats);
  Alcotest.(check bool) "still no writer" false (L.is_open ())

let test_live_main_domain_only () =
  let raises f =
    Domain.join
      (Domain.spawn (fun () ->
           match f () with () -> false | exception Invalid_argument _ -> true))
  in
  with_live_file (fun path ->
      let other = path ^ ".other" in
      Alcotest.(check bool) "open_live off the main domain" true
        (raises (fun () -> L.open_live other));
      Alcotest.(check bool) "no file opened" false (Sys.file_exists other);
      L.open_live path;
      Alcotest.(check bool) "note_progress off the main domain" true
        (raises (fun () -> L.note_progress ~name:"x" ~completed:1 ~total:1 ()));
      Alcotest.(check bool) "pulse_live off the main domain" true
        (raises L.pulse_live);
      Alcotest.(check bool) "close_live off the main domain" true
        (raises L.close_live);
      Alcotest.(check bool) "writer still open" true (L.is_open ());
      L.close_live ();
      Alcotest.(check (list string)) "only the main domain's records"
        [ "start"; "heartbeat"; "final" ]
        (List.map kind (records_of path)))

let test_live_heartbeats_carry_changes () =
  let c1 = Telemetry.Metrics.counter "test.live.changed"
  and _c2 = Telemetry.Metrics.counter "test.live.unchanged"
  and h = Telemetry.Metrics.histogram "test.live.hist" in
  with_live_file (fun path ->
      L.open_live path;
      L.pulse_live ();
      Telemetry.Metrics.incr c1;
      L.pulse_live ();
      Telemetry.Metrics.observe h 0.5;
      L.close_live ();
      let hbs = List.filter (fun j -> kind j = "heartbeat") (records_of path) in
      match List.map heartbeat_registry hbs with
      | [ r1; r2; r3 ] ->
        let names l = List.map fst l in
        Alcotest.(check bool) "the first carries the whole registry" true
          (List.mem "test.live.unchanged" (names r1.Snap.counters)
          && List.mem "test.live.hist" (names r1.Snap.histograms));
        Alcotest.(check (list string)) "then only the counters that moved"
          [ "telemetry.stream.heartbeats"; "test.live.changed" ]
          (names r2.Snap.counters);
        Alcotest.(check (list string)) "and no unchanged histogram" []
          (names r2.Snap.histograms);
        Alcotest.(check int) "counters at cumulative values"
          (Telemetry.Metrics.value c1)
          (List.assoc "test.live.changed" r2.Snap.counters);
        Alcotest.(check (list string)) "a histogram that moved, at full state"
          [ "test.live.hist" ] (names r3.Snap.histograms);
        Alcotest.(check int) "its full count" (H.count h)
          (H.count (List.assoc "test.live.hist" r3.Snap.histograms))
      | l -> Alcotest.failf "expected 3 heartbeats, got %d" (List.length l))

let test_live_latest_progress_and_interval () =
  (* an hour-long interval: only the first pulse and the close write a
     heartbeat, and each writes the latest progress noted before it *)
  with_live_file (fun path ->
      L.open_live ~interval:3600. path;
      L.note_progress ~name:"p" ~completed:1 ~total:3 ();
      L.pulse_live ();
      L.note_progress ~name:"p" ~completed:2 ~total:3 ();
      L.pulse_live ();
      L.note_progress ~name:"p" ~completed:3 ~total:3 ();
      L.pulse_live ();
      L.close_live ();
      let recs = records_of path in
      Alcotest.(check (list string)) "record sequence"
        [ "start"; "progress"; "heartbeat"; "progress"; "heartbeat"; "final" ]
        (List.map kind recs);
      Alcotest.(check (list int)) "latest progress at each heartbeat" [ 1; 3 ]
        (List.filter_map
           (fun j ->
             if kind j = "progress" then Some (int_field "completed" j)
             else None)
           recs);
      let final = List.nth recs 5 in
      Alcotest.(check int) "final heartbeats" 2 (int_field "heartbeats" final);
      Alcotest.(check int) "final events" 2 (int_field "events" final))

let test_live_reopen_closes_previous () =
  with_live_file (fun first ->
      with_live_file (fun second ->
          L.open_live first;
          L.note_progress ~name:"a" ~completed:1 ~total:1 ();
          L.open_live second;
          Alcotest.(check (list string)) "the replaced writer was closed"
            [ "start"; "progress"; "heartbeat"; "final" ]
            (List.map kind (records_of first));
          L.close_live ();
          Alcotest.(check (list string)) "the new file starts fresh"
            [ "start"; "heartbeat"; "final" ]
            (List.map kind (records_of second))))

let test_live_frame_from_histograms () =
  let lat = hist_of [ 1e-3; 2e-3; 4e-3; 8e-3 ] in
  let busy = hist_of [ 1.0; 2.0 ] and idle = hist_of [ 1.0 ] in
  let st = L.create () in
  L.feed_line st
    "{\"schema\":\"bidir-live/2\",\"record\":\"start\",\"t\":10.0,\"interval\":0.0}";
  L.feed_line st
    (heartbeat_line ~t:12.0 ~seq:1
       [ ("gc.minor_collections", 4) ]
       [ ("lp.solve_seconds", lat);
         ("engine.pool.busy_seconds", busy);
         ("engine.pool.idle_seconds", idle) ]);
  let has needle =
    let frame = L.render st in
    let nh = String.length frame and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub frame i nn = needle || at (i + 1)) in
    at 0
  in
  let p50, p90, p99 = H.percentiles lat in
  let row =
    Printf.sprintf "%-34s %8d %10.3g %10.3g %10.3g" "lp.solve_seconds" 4 p50
      p90 p99
  in
  Alcotest.(check bool) ("latency row " ^ row) true (has row);
  Alcotest.(check bool) "pool line from the histogram sums" true
    (has "pool        busy 3.0 s, idle 1.0 s (25.0% idle)");
  Alcotest.(check bool) "pool pair not in the latency table" false
    (has "engine.pool.busy_seconds");
  Alcotest.(check bool) "gc line" true (has "minor 4, major 0");
  Alcotest.(check bool) "elapsed from the file's timestamps" true
    (has "elapsed     2.0 s");
  (* a progress record with an unknown total (0): the count, no bar *)
  L.feed_line st
    "{\"record\":\"progress\",\"t\":13.0,\"name\":\"serve\",\"completed\":100,\"total\":0,\"rate\":1.0,\"ci\":null,\"ci_target\":null,\"eta\":null}";
  Alcotest.(check bool) "unknown total: the count alone" true
    (has "progress    serve  100\n");
  Alcotest.(check bool) "unknown total: no fraction" false (has "100/0");
  Alcotest.(check bool) "unknown total: no bar" false (has "            [")

(* ------------------------------------------------------------------ *)
(* Analyze on adversarial traces                                        *)
(* ------------------------------------------------------------------ *)

let mk_event ?(cat = "t") ?(tid = 0) ?(parent = "") ~ts ~dur name =
  { Telemetry.Span.name; cat; ts; dur; tid; parent; args = [] }

let analyze_invariants t =
  let paths = Telemetry.Analyze.paths t in
  let rec prefixes = function
    | [] | [ _ ] -> []
    | x :: rest -> [ x ] :: List.map (fun p -> x :: p) (prefixes rest)
  in
  List.for_all
    (fun p -> List.for_all (fun pre -> List.mem pre paths) (prefixes p))
    paths
  && List.for_all
       (fun nd -> nd.Telemetry.Analyze.self >= 0.)
       (Telemetry.Analyze.nodes t)

let test_analyze_equal_start_times () =
  (* parent and child starting on the same timestamp (a zero-cost
     prologue): containment must still resolve parent-before-child *)
  let evs =
    [ mk_event ~ts:0. ~dur:1.0 "root";
      mk_event ~ts:0. ~dur:0.6 ~parent:"root" "child";
      mk_event ~ts:0. ~dur:0.2 ~parent:"child" "grandchild";
    ]
  in
  let t = Telemetry.Analyze.analyze evs in
  Alcotest.(check bool) "invariants hold" true (analyze_invariants t);
  Alcotest.(check bool) "nested path recovered" true
    (List.mem [ "root"; "child"; "grandchild" ] (Telemetry.Analyze.paths t))

let test_analyze_zero_duration_spans () =
  let evs =
    [ mk_event ~ts:0. ~dur:1.0 "root";
      mk_event ~ts:0.5 ~dur:0. ~parent:"root" "marker";
      mk_event ~ts:0.5 ~dur:0. ~parent:"marker" "submarker";
    ]
  in
  let t = Telemetry.Analyze.analyze evs in
  Alcotest.(check bool) "invariants hold" true (analyze_invariants t);
  Alcotest.(check bool) "zero-duration span kept" true
    (List.mem [ "root"; "marker" ] (Telemetry.Analyze.paths t));
  Alcotest.(check bool) "self times within root" true
    (Telemetry.Analyze.total_self t
     <= Telemetry.Analyze.root_dur t +. 1e-6)

let test_analyze_dropped_parent () =
  (* an overflow-dropped parent: the child names a span that never made
     it into the trace, so it must fall back to a root rather than
     crash or vanish *)
  let evs =
    [ mk_event ~ts:0. ~dur:1.0 "root";
      mk_event ~ts:2.0 ~dur:0.5 ~parent:"lost" "orphan";
    ]
  in
  let t = Telemetry.Analyze.analyze evs in
  Alcotest.(check bool) "invariants hold" true (analyze_invariants t);
  Alcotest.(check bool) "orphan surfaces as a root path" true
    (List.exists
       (fun p -> List.mem "orphan" p)
       (Telemetry.Analyze.paths t))

let test_analyze_mutual_parents () =
  (* a cycle two spans naming each other as parent must not loop the
     path reconstruction *)
  let evs =
    [ mk_event ~ts:0. ~dur:1.0 ~parent:"b" "a";
      mk_event ~ts:0.1 ~dur:0.5 ~parent:"a" "b";
    ]
  in
  let t = Telemetry.Analyze.analyze evs in
  Alcotest.(check bool) "terminates with invariants" true
    (analyze_invariants t);
  Alcotest.(check bool) "both spans attributed" true
    (List.length (Telemetry.Analyze.nodes t) >= 2)

(* ------------------------------------------------------------------ *)

let suites =
  [ ( "telemetry.histogram",
      [ Alcotest.test_case "empty" `Quick test_hist_empty;
        Alcotest.test_case "single sample is exact" `Quick
          test_hist_single_sample;
        Alcotest.test_case "bucket boundaries" `Quick
          test_hist_bucket_boundaries;
        Alcotest.test_case "quantile resolution" `Quick
          test_hist_quantile_resolution;
        Alcotest.test_case "underflow clamp" `Quick test_hist_underflow_clamp;
        Alcotest.test_case "full-state JSON roundtrip" `Quick
          test_hist_state_roundtrip;
        Alcotest.test_case "merge equals direct observation" `Quick
          test_hist_merge_exact;
        Alcotest.test_case "merge rejects geometry mismatch" `Quick
          test_hist_merge_geometry_mismatch;
        QCheck_alcotest.to_alcotest merge_associative;
        QCheck_alcotest.to_alcotest observe_int_matches_observe;
        Alcotest.test_case "observe_int mixes with observe" `Quick
          test_observe_int_mixed;
      ] );
    ( "telemetry.metrics",
      [ Alcotest.test_case "registry" `Quick test_metrics_registry ] );
    ( "telemetry.json",
      [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "standard inputs" `Quick test_json_parse_standard;
        Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
        Alcotest.test_case "escapes, surrogate pairs, exponents" `Quick
          test_json_escapes;
        QCheck_alcotest.to_alcotest json_roundtrip_prop;
      ] );
    ( "telemetry.live",
      [ Alcotest.test_case "writer file round-trips through the reader"
          `Quick test_live_file_roundtrip;
        Alcotest.test_case "monotonicity violations and garbage flagged"
          `Quick test_live_monotone_violation;
        Alcotest.test_case "missing required fields are parse errors"
          `Quick test_live_strict_required_fields;
        Alcotest.test_case "bidir-live/1 and malformed registries rejected"
          `Quick test_live_old_and_malformed_registries;
        Alcotest.test_case "registry entries replace by name" `Quick
          test_live_registry_replaces_by_name;
        Alcotest.test_case "no writer: note_progress is a no-op" `Quick
          test_live_no_writer_noop;
        Alcotest.test_case "writer calls off the main domain raise" `Quick
          test_live_main_domain_only;
        Alcotest.test_case "heartbeats carry the metrics that moved" `Quick
          test_live_heartbeats_carry_changes;
        Alcotest.test_case "latest progress per heartbeat, interval gates"
          `Quick test_live_latest_progress_and_interval;
        Alcotest.test_case "reopening closes the previous writer" `Quick
          test_live_reopen_closes_previous;
        Alcotest.test_case "frame reads percentiles and pool sums" `Quick
          test_live_frame_from_histograms;
      ] );
    ( "telemetry.span",
      [ Alcotest.test_case "disabled collects nothing" `Quick
          test_span_disabled_is_free;
        Alcotest.test_case "nesting" `Quick test_span_nesting;
        Alcotest.test_case "exception records span, restores stack" `Quick
          test_span_exception_records_and_restores;
      ] );
    ( "telemetry.trace",
      [ Alcotest.test_case "chrome trace well-formed" `Quick
          test_chrome_trace_wellformed;
        Alcotest.test_case "span set independent of domain count" `Quick
          test_trace_deterministic_across_domains;
      ] );
    ( "telemetry.netsim-metrics",
      [ Alcotest.test_case "block bits histogram" `Quick
          test_netsim_block_bits;
        Alcotest.test_case "merge" `Quick test_netsim_metrics_merge;
      ] );
    ( "telemetry.resource",
      [ Alcotest.test_case "GC deltas are monotone" `Quick
          test_resource_delta_monotone;
        Alcotest.test_case "account feeds gc.* counters" `Quick
          test_resource_account_counters;
        Alcotest.test_case "spans carry GC deltas when enabled" `Quick
          test_resource_span_args;
        Alcotest.test_case "span allocation ignores collections" `Quick
          test_span_alloc_ignores_collections;
        Alcotest.test_case "LP allocation marks ignore collections" `Quick
          test_alloc_marks_collection_proof;
        Alcotest.test_case "tracking is observation-only (domains 1/4)"
          `Quick test_resource_byte_identity;
      ] );
    ( "telemetry.analyze",
      [ Alcotest.test_case "self times telescope to root wall time" `Quick
          test_self_time_conservation;
        Alcotest.test_case "collapsed stacks well-formed, focus re-roots"
          `Quick test_collapsed_stacks_wellformed;
        QCheck_alcotest.to_alcotest analyzer_paths_prefix_closed;
        Alcotest.test_case "equal start times" `Quick
          test_analyze_equal_start_times;
        Alcotest.test_case "zero-duration spans" `Quick
          test_analyze_zero_duration_spans;
        Alcotest.test_case "overflow-dropped parent falls back to root"
          `Quick test_analyze_dropped_parent;
        Alcotest.test_case "mutual parent cycle terminates" `Quick
          test_analyze_mutual_parents;
      ] );
  ]
