(* Tests for the telemetry subsystem: log-bucket histograms, the
   metrics registry, the JSON emitter/parser, hierarchical spans and
   the Chrome-trace sink — including the guarantee that the span set a
   workload produces is independent of the pool's domain count. *)

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
(* Stream: ring semantics, overflow accounting, concurrent producers    *)
(* ------------------------------------------------------------------ *)

module S = Telemetry.Stream

let counter_event i =
  S.Counter_delta { cd_t = 0.; cd_name = "test.stream.ev"; cd_delta = i }

let delta_of = function
  | S.Counter_delta { cd_delta; _ } -> cd_delta
  | _ -> Alcotest.fail "expected Counter_delta"

let test_stream_disabled_noop () =
  ignore (S.drain () : S.event list);
  S.with_enabled false (fun () ->
      let d0 = S.dropped_events () in
      Alcotest.(check bool) "emit refused" false (S.emit (counter_event 0));
      S.note_progress ~name:"x" ~completed:1 ~total:2 ();
      Alcotest.(check int) "nothing buffered" 0 (List.length (S.drain ()));
      Alcotest.(check int) "nothing counted as dropped" d0
        (S.dropped_events ()))

let test_stream_fifo_and_overflow () =
  S.with_enabled true (fun () ->
      ignore (S.drain () : S.event list);
      let d0 = S.dropped_events () in
      let extra = 100 in
      let accepted = ref 0 in
      for i = 0 to S.capacity + extra - 1 do
        if S.emit (counter_event i) then incr accepted
      done;
      Alcotest.(check int) "ring accepts exactly its capacity" S.capacity
        !accepted;
      Alcotest.(check int) "drops counted" extra (S.dropped_events () - d0);
      let evs = S.drain () in
      Alcotest.(check int) "drain returns the ring" S.capacity
        (List.length evs);
      (* FIFO: the oldest [capacity] events, in emission order *)
      List.iteri
        (fun i ev -> Alcotest.(check int) "order" i (delta_of ev))
        evs;
      (* and the ring is usable again after a full drain *)
      Alcotest.(check bool) "accepts after drain" true
        (S.emit (counter_event 0));
      ignore (S.drain () : S.event list))

let test_stream_concurrent_producers () =
  S.with_enabled true (fun () ->
      ignore (S.drain () : S.event list);
      let d0 = S.dropped_events () in
      let producers = 4 and per = 500 in
      let mk p =
        Domain.spawn (fun () ->
            for i = 0 to per - 1 do
              ignore
                (S.emit
                   (S.Counter_delta
                      { cd_t = 0.;
                        cd_name = "p" ^ string_of_int p;
                        cd_delta = i;
                      }))
            done)
      in
      let doms = List.init producers mk in
      List.iter Domain.join doms;
      let evs = S.drain () in
      Alcotest.(check int) "under capacity: nothing dropped" 0
        (S.dropped_events () - d0);
      Alcotest.(check int) "all received" (producers * per)
        (List.length evs);
      (* per-producer FIFO: each producer's events appear in its own
         emission order, however the interleaving went *)
      for p = 0 to producers - 1 do
        let name = "p" ^ string_of_int p in
        let mine =
          List.filter_map
            (function
              | S.Counter_delta { cd_name; cd_delta; _ }
                when cd_name = name ->
                Some cd_delta
              | _ -> None)
            evs
        in
        Alcotest.(check (list int))
          (name ^ " in order")
          (List.init per Fun.id) mine
      done)

let test_stream_concurrent_overflow () =
  S.with_enabled true (fun () ->
      ignore (S.drain () : S.event list);
      let d0 = S.dropped_events () in
      let producers = 4 in
      let per = (S.capacity / producers) + 1_000 in
      let doms =
        List.init producers (fun p ->
            Domain.spawn (fun () ->
                for i = 0 to per - 1 do
                  ignore
                    (S.emit
                       (S.Counter_delta
                          { cd_t = 0.;
                            cd_name = "q" ^ string_of_int p;
                            cd_delta = i;
                          }))
                done))
      in
      List.iter Domain.join doms;
      let received = List.length (S.drain ()) in
      let dropped = S.dropped_events () - d0 in
      (* conservation: every emitted event was either buffered or
         counted as dropped, never silently lost *)
      Alcotest.(check int) "received + dropped = pushed" (producers * per)
        (received + dropped);
      Alcotest.(check bool) "ring filled" true (received <= S.capacity);
      Alcotest.(check bool) "some drops happened" true (dropped > 0))

(* ------------------------------------------------------------------ *)
(* Writer + Live reader: a run's live file round-trips                  *)
(* ------------------------------------------------------------------ *)

module L = Telemetry.Live

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

let test_live_file_roundtrip () =
  let path = Filename.temp_file "bidir-test-live" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  S.with_enabled true (fun () ->
      ignore (S.drain () : S.event list);
      let w = S.Writer.create ~path () in
      S.note_progress ~name:"unit" ~completed:1 ~total:2 ~rate:10.
        ~eta_seconds:0.1 ();
      S.Writer.pulse w;
      S.note_progress ~name:"unit" ~completed:2 ~total:2 ~rate:10.
        ~eta_seconds:0. ();
      S.Writer.pulse w;
      S.Writer.close w;
      S.Writer.close w (* idempotent *));
  let st = L.create () in
  List.iter (L.feed_line st) (read_lines path);
  Alcotest.(check (option string)) "schema" (Some "bidir-live/1")
    (L.schema st);
  Alcotest.(check int) "no parse errors" 0 (L.parse_errors st);
  Alcotest.(check bool) "at least two heartbeats" true (L.heartbeats st >= 2);
  Alcotest.(check bool) "finished" true (L.finished st);
  Alcotest.(check bool) "monotone" true (L.monotone st);
  Alcotest.(check int) "no drops" 0 (L.dropped st);
  (match L.progress st with
  | Some p ->
    Alcotest.(check int) "latest completed" 2 p.L.pr_completed;
    Alcotest.(check int) "total" 2 p.L.pr_total
  | None -> Alcotest.fail "no progress survived the round trip");
  (* the frame is a pure function of the file *)
  Alcotest.(check string) "render deterministic" (L.render st) (L.render st);
  match J.parse (J.to_string (L.to_json st)) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "to_json not parseable: %s" m

let test_live_monotone_violation () =
  let st = L.create () in
  L.feed_string st
    "{\"schema\":\"bidir-live/1\",\"record\":\"start\",\"t\":1.0,\"interval\":0.0}\n\
     {\"record\":\"progress\",\"t\":2.0,\"name\":\"x\",\"completed\":5,\"total\":9,\"rate\":1.0,\"ci\":null,\"ci_target\":null,\"eta\":null}\n\
     {\"record\":\"progress\",\"t\":3.0,\"name\":\"x\",\"completed\":3,\"total\":9,\"rate\":1.0,\"ci\":null,\"ci_target\":null,\"eta\":null}\n";
  Alcotest.(check bool) "regressing progress flagged" false (L.monotone st);
  let st2 = L.create () in
  L.feed_string st2
    "{\"record\":\"heartbeat\",\"t\":1.0,\"seq\":2,\"counters\":{},\"histograms\":{}}\n\
     {\"record\":\"heartbeat\",\"t\":2.0,\"seq\":2,\"counters\":{},\"histograms\":{}}\n";
  Alcotest.(check bool) "non-increasing seq flagged" false (L.monotone st2);
  (* garbage lines count as parse errors without killing the fold *)
  let st3 = L.create () in
  L.feed_string st3 "not json at all\n{\"record\":\"heartbeat\",\"t\":1.0,\"seq\":1,\"counters\":{\"c\":2},\"histograms\":{}}\n";
  Alcotest.(check int) "parse error counted" 1 (L.parse_errors st3);
  Alcotest.(check (list (pair string int))) "later lines still folded"
    [ ("c", 2) ] (L.counters st3)

let test_live_strict_required_fields () =
  (* a record missing a required field (or carrying it ill-typed) is a
     parse error and is skipped whole — no field silently defaults,
     no partial state mutation *)
  let cases =
    [ "{\"record\":\"progress\",\"t\":2.0,\"name\":\"x\",\"total\":9,\"rate\":1.0}";
      "{\"record\":\"progress\",\"t\":2.0,\"name\":\"x\",\"completed\":5,\"rate\":1.0}";
      "{\"record\":\"progress\",\"t\":2.0,\"name\":\"x\",\"completed\":\"5\",\"total\":9}";
      "{\"record\":\"counter\",\"t\":2.0,\"name\":\"c\"}";
      "{\"record\":\"counter\",\"t\":2.0,\"delta\":3}";
      "{\"record\":\"digest\",\"t\":2.0,\"name\":\"d\",\"sum\":1.0}";
      "{\"record\":\"heartbeat\",\"t\":2.0,\"counters\":{\"c\":7},\"histograms\":{}}";
      "{\"record\":\"final\",\"t\":2.0}";
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
    (L.counters st);
  Alcotest.(check bool) "no progress leaked" true (L.progress st = None);
  Alcotest.(check bool) "not finished" false (L.finished st);
  Alcotest.(check int) "no heartbeat" 0 (L.heartbeats st);
  Alcotest.(check (float 0.)) "last_t untouched by skipped records" 0.
    (L.last_t st);
  (* a heartbeat with one malformed embedded digest must not
     half-apply: neither its seq, nor its counters, nor the valid
     digests next to the bad one *)
  let st2 = L.create () in
  L.feed_line st2
    "{\"record\":\"heartbeat\",\"t\":1.0,\"seq\":1,\"counters\":{\"c\":7},\"histograms\":{\"good\":{\"count\":2,\"sum\":1.0},\"bad\":{\"sum\":1.0}}}";
  Alcotest.(check int) "bad embedded digest is one parse error" 1
    (L.parse_errors st2);
  Alcotest.(check int) "heartbeat not half-applied" 0 (L.heartbeats st2);
  Alcotest.(check (list (pair string int))) "counters not half-applied" []
    (L.counters st2);
  Alcotest.(check int) "digests not half-applied" 0
    (List.length (L.digests st2));
  (* valid records around the bad ones still fold *)
  let st3 = L.create () in
  L.feed_string st3
    "{\"record\":\"counter\",\"t\":1.0,\"name\":\"c\",\"delta\":2}\n\
     {\"record\":\"counter\",\"t\":2.0,\"name\":\"c\"}\n\
     {\"record\":\"counter\",\"t\":3.0,\"name\":\"c\",\"delta\":3}\n";
  Alcotest.(check int) "one parse error" 1 (L.parse_errors st3);
  Alcotest.(check (list (pair string int))) "valid deltas accumulated"
    [ ("c", 5) ] (L.counters st3);
  (* unknown record kinds remain forward-compatible no-ops *)
  let st4 = L.create () in
  L.feed_line st4 "{\"record\":\"hologram\",\"t\":1.0}";
  Alcotest.(check int) "unknown kind is not an error" 0 (L.parse_errors st4);
  Alcotest.(check int) "unknown kind still counts as a record" 1
    (L.records st4)

let test_live_warning_ring_bounded () =
  (* 10k warn records fold in linear time into the bounded ring; the
     reader sees the newest 8, newest first *)
  let n = 10_000 in
  let st = L.create () in
  for i = 1 to n do
    L.feed_line st
      (Printf.sprintf
         "{\"record\":\"log\",\"t\":%d.0,\"level\":\"warn\",\"msg\":\"w%d\"}" i
         i)
  done;
  Alcotest.(check int) "all records folded" n (L.records st);
  Alcotest.(check int) "no parse errors" 0 (L.parse_errors st);
  let ws = L.warnings st in
  Alcotest.(check int) "ring keeps 8" 8 (List.length ws);
  List.iteri
    (fun i (t, level, msg) ->
      Alcotest.(check string) "newest first" (Printf.sprintf "w%d" (n - i)) msg;
      Alcotest.(check (float 0.)) "timestamp kept" (float_of_int (n - i)) t;
      Alcotest.(check string) "level kept" "warn" level)
    ws;
  (* info-level logs never enter the ring *)
  L.feed_line st "{\"record\":\"log\",\"t\":99999.0,\"level\":\"info\",\"msg\":\"quiet\"}";
  (match L.warnings st with
  | (_, _, msg) :: _ ->
    Alcotest.(check string) "info log not ringed" (Printf.sprintf "w%d" n) msg
  | [] -> Alcotest.fail "ring unexpectedly empty");
  (* a part-filled ring reports only what it holds *)
  let st2 = L.create () in
  L.feed_line st2 "{\"record\":\"log\",\"t\":1.0,\"level\":\"error\",\"msg\":\"only\"}";
  Alcotest.(check int) "single warning" 1 (List.length (L.warnings st2))

(* ------------------------------------------------------------------ *)
(* Log: levels, rate limiting, span path, SLO watchdog                  *)
(* ------------------------------------------------------------------ *)

module Lg = Telemetry.Log

(* every Log test silences the stderr sink and restores defaults *)
let with_quiet_log f =
  Lg.set_stderr None;
  Fun.protect
    ~finally:(fun () ->
      Lg.set_stderr (Some Lg.Warn);
      Lg.set_level Lg.Info;
      Lg.set_slos [])
    f

let drain_logs () =
  List.filter_map
    (function S.Log r -> Some r | _ -> None)
    (S.drain ())

let test_log_levels_and_span () =
  with_quiet_log @@ fun () ->
  S.with_enabled true (fun () ->
      ignore (S.drain () : S.event list);
      (* below the minimum level: discarded at the callsite *)
      Lg.set_level Lg.Warn;
      Lg.info "should not appear %d" 1;
      Alcotest.(check int) "info below min level" 0
        (List.length (drain_logs ()));
      Lg.set_level Lg.Info;
      (* the record carries the current span path *)
      Telemetry.Span.start ();
      Telemetry.Span.with_span "a" (fun () ->
          Telemetry.Span.with_span "b" (fun () -> Lg.warn "deep"));
      Telemetry.Span.stop ();
      match drain_logs () with
      | [ r ] ->
        Alcotest.(check string) "message" "deep" r.S.l_msg;
        Alcotest.(check string) "root-first span path" "a/b" r.S.l_span;
        Alcotest.(check string) "level" "warn" (S.level_name r.S.l_level)
      | l -> Alcotest.failf "expected one record, got %d" (List.length l))

let test_log_rate_limit () =
  with_quiet_log @@ fun () ->
  S.with_enabled true (fun () ->
      ignore (S.drain () : S.event list);
      let sup = Telemetry.Metrics.counter "telemetry.log.suppressed" in
      let s0 = Telemetry.Metrics.value sup in
      for i = 0 to 9 do
        Lg.info ~rate:3600. ~key:"rate-limit-test" "repeat %d" i
      done;
      Alcotest.(check int) "one emitted" 1 (List.length (drain_logs ()));
      Alcotest.(check int) "nine suppressed" 9
        (Telemetry.Metrics.value sup - s0);
      (* a different key is not throttled by the first *)
      Lg.info ~rate:3600. ~key:"rate-limit-other" "other";
      Alcotest.(check int) "distinct key emitted" 1
        (List.length (drain_logs ())))

let test_slo_parse () =
  (match Lg.parse_slo "lp.solve_seconds:p99:0.05:0.5" with
  | Ok s ->
    Alcotest.(check string) "metric" "lp.solve_seconds" s.Lg.slo_metric;
    Alcotest.(check string) "stat" "p99" (Lg.stat_name s.Lg.slo_stat);
    feq "warn" 0.05 s.Lg.slo_warn;
    Alcotest.(check (option (float 1e-9))) "error" (Some 0.5) s.Lg.slo_error
  | Error m -> Alcotest.failf "parse_slo: %s" m);
  (match Lg.parse_slo "campaign.pool_idle_seconds:sum:5" with
  | Ok s -> Alcotest.(check (option (float 1e-9))) "no error level" None
              s.Lg.slo_error
  | Error m -> Alcotest.failf "parse_slo: %s" m);
  List.iter
    (fun spec ->
      match Lg.parse_slo spec with
      | Ok _ -> Alcotest.failf "expected failure on %S" spec
      | Error _ -> ())
    [ ""; "metric"; "metric:p99"; "metric:nostat:1"; "metric:p99:notafloat" ]

let test_slo_watchdog_transitions () =
  with_quiet_log @@ fun () ->
  S.with_enabled true (fun () ->
      ignore (S.drain () : S.event list);
      let h = Telemetry.Metrics.histogram "test.slo.watch_hist" in
      Lg.set_slos
        [ { Lg.slo_metric = "test.slo.watch_hist"; slo_stat = Lg.Mean;
            slo_warn = 5.; slo_error = Some 100. } ];
      (* empty metric: skipped, no records *)
      Lg.watch ();
      Alcotest.(check int) "empty metric skipped" 0
        (List.length (drain_logs ()));
      (* breach: exactly one warn on the transition, silence while the
         breach persists *)
      Telemetry.Metrics.observe h 10.;
      Lg.watch ();
      (match drain_logs () with
      | [ r ] ->
        Alcotest.(check string) "warn on breach" "warn"
          (S.level_name r.S.l_level)
      | l -> Alcotest.failf "expected one warn, got %d" (List.length l));
      Lg.watch ();
      Alcotest.(check int) "no repeat while breached" 0
        (List.length (drain_logs ()));
      (* escalation to the error threshold logs once more *)
      Telemetry.Metrics.observe h 1_000.;
      Lg.watch ();
      (match drain_logs () with
      | [ r ] ->
        Alcotest.(check string) "error on escalation" "error"
          (S.level_name r.S.l_level)
      | l -> Alcotest.failf "expected one error, got %d" (List.length l));
      (* recovery: drag the mean back under the warn threshold *)
      for _ = 1 to 1_000 do Telemetry.Metrics.observe h 0. done;
      Lg.watch ();
      match drain_logs () with
      | [ r ] ->
        Alcotest.(check string) "info on recovery" "info"
          (S.level_name r.S.l_level)
      | l -> Alcotest.failf "expected one recovery record, got %d"
               (List.length l))

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
    ( "telemetry.stream",
      [ Alcotest.test_case "disabled emit is a no-op" `Quick
          test_stream_disabled_noop;
        Alcotest.test_case "FIFO order, overflow drops counted" `Quick
          test_stream_fifo_and_overflow;
        Alcotest.test_case "concurrent producers, per-producer order" `Quick
          test_stream_concurrent_producers;
        Alcotest.test_case "concurrent overflow conserves events" `Quick
          test_stream_concurrent_overflow;
      ] );
    ( "telemetry.live",
      [ Alcotest.test_case "writer file round-trips through the reader"
          `Quick test_live_file_roundtrip;
        Alcotest.test_case "monotonicity violations and garbage flagged"
          `Quick test_live_monotone_violation;
        Alcotest.test_case "missing required fields are parse errors"
          `Quick test_live_strict_required_fields;
        Alcotest.test_case "warning ring bounded at 10k warnings" `Quick
          test_live_warning_ring_bounded;
      ] );
    ( "telemetry.log",
      [ Alcotest.test_case "levels and span path" `Quick
          test_log_levels_and_span;
        Alcotest.test_case "per-callsite rate limiting" `Quick
          test_log_rate_limit;
        Alcotest.test_case "SLO spec parsing" `Quick test_slo_parse;
        Alcotest.test_case "SLO watchdog logs transitions only" `Quick
          test_slo_watchdog_transitions;
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
