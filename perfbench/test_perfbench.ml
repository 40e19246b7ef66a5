(* Self-tests of the benchmark's statistics and its open-loop driver. *)

open Perfbench_core

let feq = Alcotest.float 1e-9

let test_tail_small () =
  let s = Array.init 100 (fun i -> float_of_int (100 - i)) in
  let t = Stats.tail s in
  Alcotest.(check int) "beyond" 10 t.beyond;
  Alcotest.check feq "value" 90. t.value;
  Alcotest.check feq "percentile" 90. t.pct;
  let t = Stats.tail (Array.sub s 0 50) in
  Alcotest.check feq "p80 of 50" 80. t.pct;
  let t = Stats.tail (Array.init 300 float_of_int) in
  Alcotest.check feq "p95 of 300" 95. t.pct;
  Alcotest.(check int) "15 beyond" 15 t.beyond

let test_tail_at_least_ten () =
  let st = Random.State.make [| 7 |] in
  List.iter
    (fun n ->
      let s = Array.init n (fun _ -> Random.State.float st 1.) in
      let t = Stats.tail s in
      let above = Array.fold_left (fun k x -> if x > t.value then k + 1 else k) 0 s in
      Alcotest.(check bool) (Printf.sprintf "n=%d: >= 10 beyond" n) true (above >= 10);
      Alcotest.(check int) (Printf.sprintf "n=%d: counted" n) t.beyond above;
      Alcotest.(check bool) "capped at p95" true (t.pct <= 95. +. 1e-9))
    [ 11; 12; 57; 286; 999; 10_000; 20_000; 123_457 ]

let test_tail_cap () =
  let s = Array.init 20_000 float_of_int in
  let t = Stats.tail s in
  Alcotest.check feq "p95" 95. t.pct;
  Alcotest.(check int) "1000 beyond" 1000 t.beyond;
  Alcotest.check_raises "too few samples"
    (Invalid_argument "Stats.tail: 10 samples, need more than 10")
    (fun () -> ignore (Stats.tail (Array.make 10 1.)))

let test_tail_smooth () =
  (* no ladder: a few more samples move the percentile a little *)
  let p n = (Stats.tail (Array.init n float_of_int)).pct in
  Alcotest.(check bool) "smooth near 150" true (Float.abs (p 149 -. p 151) < 0.1)

let test_median () =
  Alcotest.check feq "odd" 2. (Stats.median [| 3.; 1.; 2. |]);
  Alcotest.check feq "even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |])

let test_failed_share () =
  let t = Stats.tally () in
  List.iter (Stats.record t)
    Stats.[ Correct; Wrong; Correct; Error; Correct; Correct; Correct; Wrong;
            Correct; Correct ];
  Alcotest.(check int) "attempted" 10 t.attempted;
  Alcotest.(check int) "failed: wrong outputs and errors" 3 t.failed;
  Alcotest.check feq "share" 0.3 (Stats.failed_share t);
  Alcotest.check feq "empty" 0. (Stats.failed_share (Stats.tally ()))

(* One FIFO server with a fixed service time that stops serving during
   [stall]; a request whose service would start in the stall starts at
   its end. *)
let simulated ~service ~stall:(s0, s1) =
  let clock = ref 0. and free = ref 0. and pending = ref [] in
  let send ~conn _ =
    let start = Float.max !clock !free in
    let start = if start >= s0 && start < s1 then s1 else start in
    free := start +. service;
    pending := List.merge compare [ (!free, conn) ] !pending
  in
  let wait ~until =
    match !pending with
    | (t, c) :: rest when t <= until ->
      clock := Float.max !clock t;
      pending := rest;
      [ (c, t) ]
    | _ ->
      clock := Float.max !clock until;
      []
  in
  { Open_loop.now = (fun () -> !clock); send; wait }

let test_due_time_stall () =
  let offsets = Array.init 50 (fun i -> 0.01 *. float_of_int i) in
  let tr =
    Open_loop.run ~conns:2 ~start:0. ~offsets ~timeout:1.
      (simulated ~service:0.001 ~stall:(0.1, 0.2))
  in
  let lat = Open_loop.latencies tr in
  Array.iter (fun l -> Alcotest.(check bool) "completed" true (Float.is_finite l)) lat;
  (* before the stall every request takes one service time *)
  Alcotest.check (Alcotest.float 1e-9) "unstalled" 0.001 lat.(5);
  (* the request due at 0.12 found both connections busy: from its send
     it took 2 ms, which is all a client timing from the send would
     see; from its due time it waited out the stall *)
  Alcotest.(check bool) "charged the stall" true (lat.(12) > 0.08);
  Alcotest.(check bool) "send-timed would hide it" true
    (tr.finished.(12) -. tr.sent.(12) < 0.005);
  let stalled = Array.fold_left (fun k l -> if l > 0.05 then k + 1 else k) 0 lat in
  Alcotest.(check bool) "every request due in the stall pays" true (stalled >= 5);
  Alcotest.(check bool) "recovers" true (lat.(40) < 0.002);
  (* the generator itself was never late: waiting for a connection is
     the system's delay, not the driver's *)
  Array.iter (fun l -> Alcotest.check feq "not late" 0. l) (Open_loop.lateness tr)

let test_poisson () =
  let a = Open_loop.poisson_schedule ~seed:3 ~rate:1000. ~seconds:5. in
  let b = Open_loop.poisson_schedule ~seed:3 ~rate:1000. ~seconds:5. in
  let c = Open_loop.poisson_schedule ~seed:4 ~rate:1000. ~seconds:5. in
  Alcotest.(check bool) "seeded" true (a = b && a <> c);
  let n = float_of_int (Array.length a) in
  Alcotest.(check bool) "rate" true (Float.abs (n -. 5000.) < 300.);
  Alcotest.(check bool) "sorted, in window" true
    (Array.for_all (fun t -> t >= 0. && t < 5.) a
    && Array.to_list a = List.sort compare (Array.to_list a))

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "tail on 100 and 50" `Quick test_tail_small;
          Alcotest.test_case "tail has 10 beyond" `Quick test_tail_at_least_ten;
          Alcotest.test_case "tail cap and minimum" `Quick test_tail_cap;
          Alcotest.test_case "tail is smooth in n" `Quick test_tail_smooth;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "failed_share counting" `Quick test_failed_share;
        ] );
      ( "open_loop",
        [ Alcotest.test_case "due-time latency under a stall" `Quick
            test_due_time_stall;
          Alcotest.test_case "poisson schedule" `Quick test_poisson;
        ] );
    ]
