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
  Engine.Memo.clear_all ();
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
(* Flat memo: the one memo table, [Engine.Memo]                        *)
(* ------------------------------------------------------------------ *)

let find_or_add t k compute =
  Engine.Memo.find_or_add t k ~decode:Bytes.sub_string compute

(* a key holding the IEEE-754 bits of [x] *)
let bits_key x =
  let k = Bytes.create 8 in
  Bytes.set_int64_le k 0 (Int64.bits_of_float x);
  Bytes.to_string k

let counted v =
  let calls = ref 0 in
  ( calls,
    fun () ->
      incr calls;
      v )

let test_flat_computes_once () =
  let t = Engine.Memo.create ~name:"test.flat" () in
  let counter kind = Telemetry.Metrics.counter ("memo.test.flat." ^ kind) in
  let h0 = Telemetry.Metrics.value (counter "hits")
  and m0 = Telemetry.Metrics.value (counter "misses") in
  let calls, compute = counted "1.5,-2" in
  Alcotest.(check string) "first" "1.5,-2" (find_or_add t "k" compute);
  Alcotest.(check string) "second" "1.5,-2" (find_or_add t "k" compute);
  Alcotest.(check int) "computed once" 1 !calls;
  Alcotest.(check int) "hits" 1 (Telemetry.Metrics.value (counter "hits") - h0);
  Alcotest.(check int) "misses" 1
    (Telemetry.Metrics.value (counter "misses") - m0);
  Alcotest.(check (option string)) "find_opt" (Some "1.5,-2")
    (Engine.Memo.find_opt t "k");
  Alcotest.(check int) "find_opt counts" 2
    (Telemetry.Metrics.value (counter "hits") - h0);
  Alcotest.(check int) "length" 1 (Engine.Memo.length t)

let test_flat_disabled_recomputes () =
  let t = Engine.Memo.create () in
  let calls, compute = counted "7" in
  Engine.Memo.with_enabled false (fun () ->
      ignore (find_or_add t "k" compute);
      ignore (find_or_add t "k" compute);
      Engine.Memo.put t "k" "8";
      Alcotest.(check (option string)) "find_opt" None
        (Engine.Memo.find_opt t "k"));
  Alcotest.(check int) "computed twice when disabled" 2 !calls;
  Alcotest.(check int) "nothing stored" 0 (Engine.Memo.length t);
  Alcotest.(check bool) "switch restored" true (Engine.Memo.enabled ())

let test_flat_exception_stores_nothing () =
  let t = Engine.Memo.create () in
  (match find_or_add t "k" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ());
  Alcotest.(check int) "nothing stored" 0 (Engine.Memo.length t);
  Alcotest.(check string) "computes after" "3"
    (find_or_add t "k" (fun () -> "3"));
  (* a failing decode of a stored value releases the table *)
  (match
     Engine.Memo.find_or_add t "k" ~decode:(fun _ _ _ -> failwith "decode")
       (fun () -> "4")
   with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ());
  Alcotest.(check int) "still one entry" 1 (Engine.Memo.length t)

let test_flat_clear () =
  let t = Engine.Memo.create () in
  let fill v = ignore (find_or_add t "k" (fun () -> v)) in
  fill "1";
  Engine.Memo.clear t;
  Alcotest.(check int) "cleared" 0 (Engine.Memo.length t);
  Alcotest.(check string) "recomputed after clear" "2"
    (find_or_add t "k" (fun () -> "2"));
  Engine.Memo.clear_all ();
  Alcotest.(check int) "cleared by clear_all" 0 (Engine.Memo.length t);
  fill "3";
  Alcotest.(check string) "recomputed after clear_all" "3"
    (find_or_add t "k" (fun () -> "4"))

(* Entry [i]: a key of [i mod 301] bytes (0 to 300, so not always a
   multiple of 8) and a value of [i mod 37] numbers. 3000 of them fill
   several chunks and grow the index four times; one more key, and one
   more value, is larger than the largest regular chunk. *)
let chunk_key round i =
  Printf.sprintf "%d:%d:" round i
  ^ String.make (i mod 301) (Char.chr (i land 255))

let chunk_value round i =
  String.concat ","
    (List.init (i mod 37) (fun j ->
         string_of_int ((round * 1_000_000) + (i * 100) + j)))

let test_flat_chunk_growth () =
  let t = Engine.Memo.create () in
  let n = 3000 in
  let huge = String.make (3 * 1024 * 1024) 'h' in
  let fail_compute () = Alcotest.fail "expected a hit" in
  List.iter
    (fun round ->
      Engine.Memo.clear t;
      for i = 0 to n - 1 do
        ignore
          (find_or_add t (chunk_key round i) (fun () -> chunk_value round i))
      done;
      ignore (find_or_add t huge (fun () -> string_of_int round));
      Engine.Memo.put t "huge value" (huge ^ string_of_int round);
      Alcotest.(check int) "length" (n + 2) (Engine.Memo.length t);
      for i = 0 to n - 1 do
        Alcotest.(check string) (chunk_key round i) (chunk_value round i)
          (find_or_add t (chunk_key round i) fail_compute)
      done;
      Alcotest.(check string) "huge key" (string_of_int round)
        (find_or_add t huge fail_compute);
      Alcotest.(check bool) "huge value" true
        (Engine.Memo.find_opt t "huge value"
        = Some (huge ^ string_of_int round)))
    (* the second round refills the chunks the first one left *)
    [ 1; 2 ]

let test_flat_bitwise_keys () =
  let t = Engine.Memo.create () in
  let calls = ref 0 in
  let add x =
    Engine.Memo.find_or_add t (bits_key x)
      ~decode:(fun b off _ -> Int64.float_of_bits (Bytes.get_int64_le b off))
      (fun () ->
        incr calls;
        bits_key x)
  in
  List.iter (fun x -> ignore (add x)) [ 0.1; Float.succ 0.1; 0.; -0. ];
  Alcotest.(check int) "four distinct entries" 4 !calls;
  Alcotest.(check bool) "-0. hits its own entry" true
    (Float.sign_bit (add (-0.)));
  Alcotest.(check bool) "0. hits its own entry" false (Float.sign_bit (add 0.));
  Alcotest.(check int) "no recompute" 4 !calls

(* Domain [a] misses, and while it computes, domain [b] misses, computes
   and stores the same key: [a] must then return [b]'s stored value. *)
let test_flat_race_first_writer_wins () =
  let t = Engine.Memo.create () in
  let a_computing = Atomic.make false and b_done = Atomic.make false in
  let wait flag =
    while not (Atomic.get flag) do
      Domain.cpu_relax ()
    done
  in
  let a =
    Domain.spawn (fun () ->
        find_or_add t "race" (fun () ->
            Atomic.set a_computing true;
            wait b_done;
            "1"))
  in
  let b =
    Domain.spawn (fun () ->
        wait a_computing;
        let v = find_or_add t "race" (fun () -> "2") in
        Atomic.set b_done true;
        v)
  in
  Alcotest.(check string) "b stored first" "2" (Domain.join b);
  Alcotest.(check string) "a returns b's value" "2" (Domain.join a);
  Alcotest.(check int) "one entry" 1 (Engine.Memo.length t)

(* Model test: [find_or_add], [put] and [find_opt] against a [Hashtbl]
   that keeps the first value added per key, over random keys (short
   ones over a 3-letter alphabet, so they repeat) and byte values — the
   empty string, NUL bytes, values larger than the first chunk — with
   clears in between. *)
type flat_op =
  | Add of string * string
  | Put of string * string
  | Find of string
  | Clear

let flat_key_gen =
  QCheck.Gen.(string_size ~gen:(char_range 'a' 'c') (int_bound 9))

let flat_value_gen =
  QCheck.Gen.(
    frequency
      [ (20, string_size ~gen:char (int_bound 40));
        (3, return "");
        (3, map (fun n -> String.make n '\000') (int_bound 12));
        (1, string_size ~gen:char (int_range 16_385 40_000));
      ])

let flat_op_gen =
  QCheck.Gen.(
    frequency
      [ (20, map2 (fun k v -> Add (k, v)) flat_key_gen flat_value_gen);
        (5, map2 (fun k v -> Put (k, v)) flat_key_gen flat_value_gen);
        (5, map (fun k -> Find k) flat_key_gen);
        (1, return Clear);
      ])

let print_flat_op = function
  | Add (k, v) -> Printf.sprintf "Add (%S, %d bytes)" k (String.length v)
  | Put (k, v) -> Printf.sprintf "Put (%S, %d bytes)" k (String.length v)
  | Find k -> Printf.sprintf "Find %S" k
  | Clear -> "Clear"

let flat_model_table = lazy (Engine.Memo.create ())

let prop_flat_matches_hashtbl =
  QCheck.Test.make ~count:200 ~name:"flat memo matches a Hashtbl model"
    QCheck.(
      make
        ~print:(Print.list print_flat_op)
        Gen.(list_size (int_bound 600) flat_op_gen))
    (fun ops ->
      let t = Lazy.force flat_model_table in
      Engine.Memo.clear t;
      let model = Hashtbl.create 64 in
      let first k v =
        match Hashtbl.find_opt model k with
        | Some w -> w
        | None ->
          Hashtbl.add model k v;
          v
      in
      List.for_all
        (fun op ->
          (match op with
          | Clear ->
            Engine.Memo.clear t;
            Hashtbl.reset model;
            true
          | Add (k, v) ->
            let want = first k v in
            String.equal want (find_or_add t k (fun () -> v))
          | Put (k, v) ->
            ignore (first k v : string);
            Engine.Memo.put t k v;
            true
          | Find k -> Engine.Memo.find_opt t k = Hashtbl.find_opt model k)
          && Engine.Memo.length t = Hashtbl.length model)
        ops)

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
        Engine.Memo.clear_all ();
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
      [ Alcotest.test_case "bound key: repeat hits" `Quick test_bound_key_repeat_hits;
        Alcotest.test_case "bound key: one ulp misses" `Quick test_bound_key_one_ulp;
        Alcotest.test_case "bound key: zero sign misses" `Quick test_bound_key_zero_sign;
      ] );
    ( "engine.flat_memo",
      [ Alcotest.test_case "computes once, then hits" `Quick
          test_flat_computes_once;
        Alcotest.test_case "disabled recomputes" `Quick
          test_flat_disabled_recomputes;
        Alcotest.test_case "exception stores nothing" `Quick
          test_flat_exception_stores_nothing;
        Alcotest.test_case "clear and clear_all" `Quick test_flat_clear;
        Alcotest.test_case "keys across chunk growth" `Quick
          test_flat_chunk_growth;
        Alcotest.test_case "one ulp and zero sign" `Quick
          test_flat_bitwise_keys;
        Alcotest.test_case "race: first writer wins" `Quick
          test_flat_race_first_writer_wins;
        QCheck_alcotest.to_alcotest prop_flat_matches_hashtbl;
      ] );
    ( "engine.determinism",
      [ Alcotest.test_case "fig3 identical across domains" `Quick test_fig3_identical_across_domains;
        Alcotest.test_case "fig4 identical across domains" `Quick test_fig4_identical_across_domains;
        Alcotest.test_case "cache on/off agree" `Quick test_cache_on_off_agree;
        Alcotest.test_case "crossover_table hits cache" `Quick test_crossover_hits_cache;
      ] );
  ]
