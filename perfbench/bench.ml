(* The repository benchmark. See perfbench/README.md.

   bench.exe --workload W --seed N --seconds S --trace 0|1 --cli PATH

   prints human-readable lines, then as its last line one JSON object
   {correct, attempted, failed, metrics}: the six end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1. *)

open Perfbench_core
module Json = Telemetry.Json

let now = Clock.now
let say fmt = Printf.printf (fmt ^^ "\n%!")

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;
}

let workloads = [ "figures-cold"; "campaign-network"; "serve-hot"; "serve-cold" ]

(* Fresh process starts timed per run; set-up is reported as their
   median, so one slow start cannot move it. *)
let fresh_starts = function
  | "serve-hot" | "serve-cold" -> 15
  | _ -> 41

(* The fixed open-loop arrival rate of serve-cold, about a fifth of
   what one daemon domain answers on unique queries. *)
let cold_rate = 1000.

(* The daemon's domain count on both serve workloads: with the driver
   on the second of two cores, a second daemon domain would contend
   with the driver rather than add capacity. *)
let daemon_domains = 1

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let metrics : (string * Json.t) list ref = ref []

let metric name unit_ value =
  if not (Float.is_finite value) then
    failwith (Printf.sprintf "metric %s is not finite" name);
  metrics :=
    (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ])
    :: !metrics

(* A per-layer metric, with where it was measured: on this workload's
   own ops ("run") or by a fixed probe of the layer ("probe"). *)
let layer ?(src = "run") name unit_ value =
  say "  %-34s %14.6g %-6s [%s]" name value unit_ src;
  metric name unit_ value

let emit (t : Stats.tally) =
  let correct = t.failed = 0 && t.attempted > 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Int t.attempted);
            ("failed", Json.Int t.failed);
            ("metrics", Json.Obj (List.rev !metrics));
          ]))

let end_to_end ~tally ~setup ~elapsed ~latencies ~peak_rss =
  let correct = float_of_int (tally.Stats.attempted - tally.Stats.failed) in
  let ms = Array.map (fun s -> 1e3 *. s) latencies in
  let tail = Stats.tail ms in
  say "latency: n=%d p50=%.4f ms, tail p%.2f=%.4f ms (%d samples beyond)"
    tail.n (Stats.median ms) tail.pct tail.value tail.beyond;
  say "latency quantiles, ms: %s"
    (String.concat " "
       (List.map
          (fun q -> Printf.sprintf "p%g=%.4g" (100. *. q) (Stats.quantile ms q))
          [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 0.999 ]));
  say "set-up: median of %d fresh starts" (Array.length setup);
  metric "setup_s" "s" (Stats.median setup);
  metric "ops_per_s" "1/s" (correct /. elapsed);
  metric "latency_p50_ms" "ms" (Stats.median ms);
  metric "latency_tail_ms" "ms" tail.value;
  metric "peak_rss_mb" "MB" peak_rss;
  (* reported as the share that succeeded, so the metric is never 0 on
     a healthy program and a bound on its fall is meaningful *)
  say "failed_share: %g" (Stats.failed_share tally);
  metric "correct_share" "1" (1. -. Stats.failed_share tally)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* What an in-process workload does between process start and its
   first op. *)
let setup_in_process = function
  | "campaign-network" ->
    Engine.Pool.set_default_domains 2;
    Engine.Pool.prewarm ~domains:2 ()
  | _ -> Engine.Pool.set_default_domains 1

(* Start this executable in probe mode and wait for its "ready" line;
   [probe_stop] reaps it. *)
let probe_start workload () =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--probe"; workload |]
      null w Unix.stderr
  in
  Unix.close w;
  Unix.close null;
  let line = Daemon.read_line r ~deadline:(Unix.gettimeofday () +. 60.) in
  Unix.close r;
  if line <> "ready" then failwith "set-up probe did not get ready";
  pid

let probe_stop pid = ignore (Unix.waitpid [] pid : int * Unix.process_status)

let self_peak_rss_mb () = Daemon.peak_rss_mb "self"


let timed_start f =
  let t0 = now () in
  let x = f () in
  (now () -. t0, x)

(* [k] timed fresh starts, each stopped again. *)
let timed_starts k start stop =
  Array.init k (fun _ ->
      let dt, x = timed_start start in
      stop x;
      dt)

(* Set-up samples come half from before the timed window and half from
   after it, so their median spans the host's slow and fast spells over
   the run. [window] gets the kept start, the last one before it. *)
let with_fresh_starts workload start stop window =
  let half = fresh_starts workload / 2 in
  let before = timed_starts half start stop in
  let dt, x = timed_start start in
  let r = window x in
  let after = timed_starts half start stop in
  (Array.concat [ before; [| dt |]; after ], r)

(* ------------------------------------------------------------------ *)
(* Timed windows                                                       *)
(* ------------------------------------------------------------------ *)

(* What the benchmark's own process spent over a window. *)
type cost = {
  gc_minor_mb : float;
  gc_major : int;
  cpu_s : float;
}

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let with_cost f =
  let g0 = Gc.quick_stat () and c0 = cpu_time () in
  let x = f () in
  let c1 = cpu_time () and g1 = Gc.quick_stat () in
  ( x,
    { gc_minor_mb =
        (g1.Gc.minor_words -. g0.Gc.minor_words)
        *. float_of_int (Sys.word_size / 8)
        /. 1048576.;
      gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
      cpu_s = c1 -. c0;
    } )

type window = {
  lat : float array;   (* op wall times, s *)
  gaps : float array;  (* driver turnaround between ops, s *)
  elapsed : float;
  cost : cost;
}

(* Run [op 0], [op 1], ... back to back until [seconds] have passed.
   [check i x] sees op [i]'s result after its clock has stopped. *)
let closed_loop ~seconds op check =
  let lat = Stats.Samples.create () and gaps = Stats.Samples.create () in
  let elapsed, cost =
    with_cost (fun () ->
        let start = now () in
        let deadline = start +. seconds in
        (* [last] is when the previous op returned: the gap to the next
           op's start is the driver's own bookkeeping *)
        let last = ref start and i = ref 0 in
        while !last < deadline do
          let t0 = now () in
          if !i > 0 then Stats.Samples.add gaps (t0 -. !last);
          let x = op !i in
          let t1 = now () in
          Stats.Samples.add lat (t1 -. t0);
          check !i x;
          incr i;
          last := t1
        done;
        !last -. start)
  in
  { lat = Stats.Samples.to_array lat;
    gaps = Stats.Samples.to_array gaps;
    elapsed;
    cost;
  }

let check_digests tally outs reference =
  let expect = Digest.string reference in
  List.iter
    (fun d -> Stats.record tally (if d = expect then Stats.Correct else Stats.Wrong))
    outs

(* The driver's own layers over [ops] ops: its GC, how late it ran
   ([late], s) and its cost per op ([client_s], s). *)
let window_layers ~ops (c : cost) ~late ~client_s =
  let n = float_of_int (max 1 ops) in
  layer "gc.minor_mb_per_op" "MB" (c.gc_minor_mb /. n);
  layer "gc.major_collections_per_op" "count" (float_of_int c.gc_major /. n);
  layer "driver.late_ms_p99" "ms" (1e3 *. Stats.quantile late 0.99);
  layer "driver.client_us_per_req" "us" (1e6 *. client_s)

let count_layers ~src (c : Layers.counts) =
  let per_op x = float_of_int x /. float_of_int (max 1 c.ops) in
  layer ~src "linprog.solves_per_op" "count" (per_op c.solves);
  layer ~src "linprog.pivots_per_solve" "count" (Layers.ratio c.pivots c.solves);
  layer ~src "linprog.warm_share" "1" (Layers.ratio c.warm c.solves);
  layer ~src "linprog.row_ops_per_op" "count" (per_op c.row_ops);
  layer ~src "memo.hit_share" "1"
    (Layers.ratio c.memo_hits (c.memo_hits + c.memo_misses))

let span_layers ~src (s : Layers.spans) =
  layer ~src "linprog.solve_self_ms_per_op" "ms"
    (Layers.self_ms s [ "lp.solve"; "lp.probe" ]);
  layer ~src "core.sum_rate_self_ms_per_op" "ms"
    (Layers.self_ms s [ "optimize.sum_rate" ])

(* ------------------------------------------------------------------ *)
(* Probes of layers a workload does not exercise itself                *)
(* ------------------------------------------------------------------ *)

let probe_core () =
  layer ~src:"probe" "linprog.reoptimize_ns" "ns" (Layers.reoptimize_ns ());
  let region_ms, lps = Layers.region_probe () in
  layer ~src:"probe" "core.region_ms" "ms" region_ms;
  layer ~src:"probe" "core.lps_per_region" "count" lps

(* Artifact and render times per op, from the benchmark's own spans
   around each artifact call and each rendering. *)
let artifact_layers ~src (acc : Layers.spans) =
  List.iter
    (fun id ->
      layer ~src ("core.artifact_ms." ^ id) "ms"
        (Layers.mean_ms acc ("bench.eval." ^ id)))
    Workloads.artifact_ids;
  layer ~src "report.render_ms_per_op" "ms" (Layers.self_ms acc [ "bench.render" ])

let probe_artifacts () =
  let acc = Layers.spans () in
  for _ = 1 to 3 do
    ignore (Layers.traced acc (fun () -> Workloads.figures_all ()) : string * float)
  done;
  artifact_layers ~src:"probe" acc

(* Traced campaign ops at 1 domain after the caller's at 2 ([acc2],
   [pool2]): the campaign, network and pool layers, and the 2-vs-1-domain
   speedup. The assignment pivots are counted over the 1-domain ops,
   where no other domain's solves run at the same time. Returns the
   1-domain outputs. *)
let campaign_layers ~src ~seed ~reps1 (acc2 : Layers.spans) pool2 =
  let acc1 = Layers.spans () in
  let s0 = Layers.snap () in
  let outs1 =
    List.init reps1 (fun _ ->
        fst (Layers.traced acc1 (fun () -> Workloads.campaign_json ~seed ~domains:1)))
  in
  let c1 = Layers.counts ~ops:reps1 s0 (Layers.snap ()) in
  let med (a : Layers.spans) = Stats.median (Array.of_list a.op_seconds) in
  layer ~src "campaign.shard_ms_mean" "ms" (Layers.mean_ms acc2 "campaign.shard");
  layer ~src "campaign.merge_ms" "ms" (Layers.self_ms acc2 [ "campaign.run" ]);
  layer ~src "campaign.speedup_2v1" "1" (med acc1 /. med acc2);
  layer ~src "network.rate_table_ms" "ms" (Layers.mean_ms acc2 "network.rate_table");
  layer ~src "network.assign_ms" "ms" (Layers.mean_ms acc2 "network.assign");
  layer ~src "network.assignment_pivots_per_op" "count"
    (float_of_int c1.assignment_pivots /. float_of_int reps1);
  (match pool2 with
  | Some (p : Layers.pool) ->
    layer ~src "pool.busy_share" "1" p.busy_share;
    layer ~src "pool.idle_share" "1" p.idle_share;
    layer ~src "pool.queue_wait_ms_mean" "ms" p.queue_wait_ms;
    layer ~src "pool.chunk_imbalance_mean" "1" p.imbalance
  | None -> failwith "campaign at 2 domains ran no parallel map");
  outs1

let probe_campaign ~seed =
  Engine.Pool.prewarm ~domains:2 ();
  let acc2 = Layers.spans () in
  let s0 = Layers.snap () in
  let outs2 =
    List.init 2 (fun _ ->
        fst (Layers.traced acc2 (fun () -> Workloads.campaign_json ~seed ~domains:2)))
  in
  let outs1 = campaign_layers ~src:"probe" ~seed ~reps1:2 acc2 (Layers.pool s0 (Layers.snap ())) in
  (* not one of this workload's ops, so not counted as failed; the
     campaign-network workload counts it *)
  if List.exists (fun o -> not (List.mem o outs1)) outs2 then
    say "campaign probe: 2-domain result_to_json differs from 1-domain"

(* ------------------------------------------------------------------ *)
(* The in-process workloads                                            *)
(* ------------------------------------------------------------------ *)

(* One in-process workload. [op] is one timed op; every op's output
   must equal [reference ()], which is made after the window, outside
   set-up. With --trace 1 the window is split: the first half runs
   untraced and gives the registry counters (between the snapshots
   handed to [layers]), the GC deltas and the untraced op times; the
   second half runs traced, each op's trace analysed after its clock
   stops. [layers] prints the workload's own per-layer metrics and the
   probes of the layers it does not exercise. *)
let in_process a ~op ~reference ~layers =
  let tally = Stats.tally () in
  let outs = ref [] in
  let keep _ out = outs := Digest.string out :: !outs in
  setup_in_process a.workload;
  if not a.trace then begin
    let setup, (w, peak_rss) =
      with_fresh_starts a.workload (probe_start a.workload) probe_stop
        (fun pid ->
          probe_stop pid;
          let w = closed_loop ~seconds:a.seconds (fun _ -> op ()) keep in
          (w, self_peak_rss_mb ()))
    in
    check_digests tally !outs (reference ());
    end_to_end ~tally ~setup ~elapsed:w.elapsed ~latencies:w.lat ~peak_rss
  end
  else begin
    let s0 = Layers.snap () in
    let w = closed_loop ~seconds:(a.seconds /. 2.) (fun _ -> op ()) keep in
    let s1 = Layers.snap () in
    let acc = Layers.spans () in
    let deadline = now () +. (a.seconds /. 2.) in
    while now () < deadline do
      keep () (fst (Layers.traced acc op))
    done;
    let ops = Array.length w.lat in
    say "per-layer (untraced ops %d, traced ops %d):" ops acc.ops;
    count_layers ~src:"run" (Layers.counts ~ops s0 s1);
    span_layers ~src:"run" acc;
    probe_core ();
    layers (s0, s1) acc;
    check_digests tally !outs (reference ());
    window_layers ~ops w.cost ~late:w.gaps ~client_s:(Stats.mean w.gaps);
    layer "trace.overhead_share" "1"
      (Stats.median (Array.of_list acc.op_seconds) /. Stats.median w.lat -. 1.);
    layer "residue_share" "1" (Layers.residue_share acc)
  end;
  tally

(* ------------------------------------------------------------------ *)
(* serve: the daemon over a local socket                               *)
(* ------------------------------------------------------------------ *)

type hot = {
  daemon : Daemon.t;
  conn : Http_client.reader;
  bodies : (string, string) Hashtbl.t;  (* key -> body recorded at fill *)
}

(* Start a daemon and fill its response cache with every pool query;
   the answers are recorded as the reference bodies. *)
let start_hot ~cli =
  let daemon = Daemon.start ~cli ~domains:daemon_domains in
  let conn = Http_client.connect ~port:daemon.port in
  let bodies = Hashtbl.create 128 in
  List.iteri
    (fun i q ->
      match Http_client.request conn (Workloads.request_bytes i q) with
      | 200, body -> Hashtbl.replace bodies (Serve.Query.key q) body
      | status, _ -> failwith (Printf.sprintf "cache fill: status %d" status))
    (Workloads.all_pool_queries ());
  { daemon; conn; bodies }

let stop_hot h =
  Http_client.close h.conn;
  Daemon.stop h.daemon

(* Closed loop over the one keep-alive connection until the deadline;
   every body must equal the one recorded for its key. *)
let hot_loop h ~seconds ~tally (reqs : (string * string) array) =
  let req i = reqs.(i mod Array.length reqs) in
  closed_loop ~seconds
    (fun i ->
      try Some (Http_client.request h.conn (snd (req i)))
      with Unix.Unix_error _ | Http_client.Bad_response _ -> None)
    (fun i reply ->
      Stats.record tally
        (match reply with
        | Some (200, body) ->
          if Some body = Hashtbl.find_opt h.bodies (fst (req i)) then Stats.Correct
          else Stats.Wrong
        | _ -> Stats.Error))

let hot_requests ~seed n =
  Array.mapi
    (fun i q -> (Serve.Query.key q, Workloads.request_bytes i q))
    (Workloads.pool_queries ~seed n)

(* Replay the run's request bytes in-process through each serve layer:
   stage times, then whole requests untraced and traced (for the trace
   overhead and the LP/core self times per request). [prepare] puts
   the in-process caches in the state the daemon's were in. *)
let serve_replay_layers ~src ~prepare ~client_p50_us (reqs : string array) =
  let st = Layers.stages reqs in
  layer ~src "serve.http_parse_us" "us" st.parse_us;
  layer ~src "serve.query_decode_us" "us" st.decode_us;
  layer ~src "serve.respond_hit_us" "us" st.hit_us;
  layer ~src "serve.respond_miss_us" "us" st.miss_us;
  layer ~src "serve.http_response_us" "us" st.response_us;
  prepare ();
  let t0 = now () in
  Array.iter (fun b -> ignore (Layers.handle b : string)) reqs;
  let untraced = now () -. t0 in
  prepare ();
  let acc = Layers.spans () in
  Array.iter (fun b -> ignore (Layers.traced acc (fun () -> Layers.handle b))) reqs;
  let traced = List.fold_left ( +. ) 0. acc.op_seconds in
  let in_process_us = 1e6 *. untraced /. float_of_int (Array.length reqs) in
  let residue = client_p50_us -. in_process_us in
  layer ~src "serve.loop_residue_us" "us" residue;
  (acc, traced /. untraced -. 1., residue /. client_p50_us)

(* serve-hot runs no LP and consults no named memo table, so its
   linprog, memo and core layers come from a replay of its own requests
   on emptied caches: counted untraced, then timed traced. *)
let probe_cold_replay (reqs : string array) =
  Engine.Memo.clear_all ();
  let s0 = Layers.snap () in
  Array.iter (fun b -> ignore (Layers.handle b : string)) reqs;
  count_layers ~src:"probe" (Layers.counts ~ops:(Array.length reqs) s0 (Layers.snap ()));
  Engine.Memo.clear_all ();
  let acc = Layers.spans () in
  Array.iter (fun b -> ignore (Layers.traced acc (fun () -> Layers.handle b))) reqs;
  span_layers ~src:"probe" acc

let daemon_layers ~src a b =
  let hits = Layers.delta a b "serve.cache_hits"
  and misses = Layers.delta a b "serve.cache_misses" in
  layer ~src "serve.cache_hit_share" "1" (Layers.ratio hits (hits + misses));
  layer ~src "serve.batch_size_mean" "count"
    (Option.value ~default:0. (Layers.hist_mean a b "serve.batch_size"))

(* For workloads that never talk to the daemon: a short hot session and
   an in-process replay of its requests. *)
let probe_serve ~cli ~seed =
  let h = start_hot ~cli in
  let reqs = hot_requests ~seed 2000 in
  let m0 = Daemon.metrics h.daemon in
  let tally = Stats.tally () in
  let w = hot_loop h ~seconds:0.5 ~tally reqs in
  let m1 = Daemon.metrics h.daemon in
  stop_hot h;
  if tally.failed > 0 then failwith "serve probe: wrong answers";
  daemon_layers ~src:"probe" m0 m1;
  ignore
    (serve_replay_layers ~src:"probe" ~prepare:Workloads.fill_response_cache
       ~client_p50_us:(1e6 *. Stats.median w.lat)
       (Array.map snd reqs)
      : Layers.spans * float * float)

(* ------------------------------------------------------------------ *)
(* The four workloads                                                  *)
(* ------------------------------------------------------------------ *)

let figures_cold a =
  let reference () =
    Engine.Pool.set_default_domains 2;
    let r = Workloads.figures_all () in
    Engine.Pool.set_default_domains 1;
    r
  in
  in_process a ~op:Workloads.figures_all ~reference ~layers:(fun _ acc ->
      artifact_layers ~src:"run" acc;
      probe_campaign ~seed:a.seed;
      probe_serve ~cli:a.cli ~seed:a.seed)

let campaign_network a =
  let seed = a.seed in
  in_process a
    ~op:(fun () -> Workloads.campaign_json ~seed ~domains:2)
    ~reference:(fun () -> Workloads.campaign_json ~seed ~domains:1)
    ~layers:(fun (s0, s1) acc ->
      ignore (campaign_layers ~src:"run" ~seed ~reps1:3 acc (Layers.pool s0 s1)
              : string list);
      probe_artifacts ();
      probe_serve ~cli:a.cli ~seed)

let serve_hot a =
  let tally = Stats.tally () in
  let reqs = hot_requests ~seed:a.seed 8192 in
  let window h =
    let seconds = if a.trace then a.seconds /. 2. else a.seconds in
    let m0 = Daemon.metrics h.daemon in
    let w = hot_loop h ~seconds ~tally reqs in
    let m1 = Daemon.metrics h.daemon in
    let peak_rss = Daemon.daemon_peak_rss_mb h.daemon in
    stop_hot h;
    (m0, w, m1, peak_rss)
  in
  let start () = start_hot ~cli:a.cli in
  let setup, (m0, w, m1, peak_rss) =
    if a.trace then ([||], window (start ()))
    else with_fresh_starts a.workload start stop_hot window
  in
  let n = Array.length w.lat in
  if not a.trace then
    end_to_end ~tally ~setup ~elapsed:w.elapsed ~latencies:w.lat ~peak_rss
  else begin
    say "per-layer (requests %d):" n;
    daemon_layers ~src:"run" m0 m1;
    let replay = Array.map snd (Array.sub reqs 0 (min n 2000)) in
    let _, overhead, residue =
      serve_replay_layers ~src:"run" ~prepare:Workloads.fill_response_cache
        ~client_p50_us:(1e6 *. Stats.median w.lat) replay
    in
    probe_cold_replay replay;
    probe_core ();
    probe_artifacts ();
    probe_campaign ~seed:a.seed;
    window_layers ~ops:n w.cost ~late:w.gaps
      ~client_s:(w.cost.cpu_s /. float_of_int n);
    layer "trace.overhead_share" "1" overhead;
    layer "residue_share" "1" residue
  end;
  tally

(* The open-loop transport over [conns] keep-alive connections; replies
   land in [replies.(i)] as (status, body), status -1 on a socket
   error. *)
let socket_transport ~port ~conns (reqs : string array) replies =
  let readers = Array.init conns (fun _ -> Http_client.connect ~port) in
  let in_flight = Array.make conns (-1) in
  let errored = ref [] in
  let fail c =
    replies.(in_flight.(c)) <- Some (-1, "");
    Http_client.close readers.(c);
    readers.(c) <- Http_client.connect ~port;
    errored := (c, now ()) :: !errored
  in
  let send ~conn i =
    in_flight.(conn) <- i;
    try Http_client.write_all readers.(conn).fd reqs.(i)
    with Unix.Unix_error _ -> fail conn
  in
  let wait ~until =
    let busy =
      List.filter (fun c -> in_flight.(c) >= 0) (List.init conns Fun.id)
    in
    let timeout = Float.max 0. (until -. now ()) in
    let done_ = ref !errored in
    errored := [];
    (if !done_ = [] then
       match
         Unix.select (List.map (fun c -> readers.(c).Http_client.fd) busy) [] [] timeout
       with
       | ready, _, _ ->
         List.iter
           (fun c ->
             let r = readers.(c) in
             if List.mem r.Http_client.fd ready then
               if not (Http_client.feed r) then fail c
               else
                 match Http_client.take r with
                 | Some resp ->
                   replies.(in_flight.(c)) <- Some resp;
                   done_ := (c, now ()) :: !done_
                 | None -> ()
                 | exception Http_client.Bad_response _ -> fail c)
           busy
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    let finished = !done_ @ !errored in
    errored := [];
    List.iter (fun (c, _) -> in_flight.(c) <- -1) finished;
    finished
  in
  ({ Open_loop.now; send; wait }, readers)

let serve_cold a =
  let tally = Stats.tally () in
  let offsets =
    Open_loop.poisson_schedule ~seed:a.seed ~rate:cold_rate
      ~seconds:(if a.trace then a.seconds /. 2. else a.seconds)
  in
  let n = Array.length offsets in
  let queries = Workloads.unique_queries ~seed:a.seed n in
  let reqs = Array.mapi Workloads.request_bytes queries in
  let conns = 2 in
  let start () =
    let d = Daemon.start ~cli:a.cli ~domains:daemon_domains in
    let replies = Array.make n None in
    let t, readers = socket_transport ~port:d.port ~conns reqs replies in
    (d, t, readers, replies)
  in
  let stop (d, _, readers, _) =
    Array.iter Http_client.close readers;
    Daemon.stop d
  in
  let window ((d, t, _, replies) as kept) =
    let m0 = Daemon.metrics d in
    let t0 = now () +. 0.001 in
    let tr, cost =
      with_cost (fun () -> Open_loop.run ~conns ~start:t0 ~offsets ~timeout:30. t)
    in
    let m1 = Daemon.metrics d in
    let peak_rss = Daemon.daemon_peak_rss_mb d in
    stop kept;
    (m0, m1, t0, tr, replies, cost, peak_rss)
  in
  let setup, (m0, m1, start, tr, replies, cost, peak_rss) =
    if a.trace then ([||], window (start ()))
    else with_fresh_starts a.workload start stop window
  in
  (* every request answered 200 with its own query echoed, and the
     answer agrees with an in-process evaluation *)
  let lat = Open_loop.latencies tr in
  Array.iteri
    (fun i q ->
      let outcome =
        match replies.(i) with
        | Some (200, body) when Float.is_finite lat.(i) ->
          if Workloads.echoes_key (Serve.Query.key q) body
             && Workloads.answer_agrees q body
          then Stats.Correct
          else Stats.Wrong
        | _ -> Stats.Error
      in
      Stats.record tally outcome)
    queries;
  let finite a = Array.of_list (List.filter Float.is_finite (Array.to_list a)) in
  let elapsed = Array.fold_left Float.max start (finite tr.finished) -. start in
  let lat = finite lat in
  let late = Open_loop.lateness tr in
  say "driver lateness, ms: p50 %.3f, p99 %.3f, max %.3f"
    (1e3 *. Stats.quantile late 0.5) (1e3 *. Stats.quantile late 0.99)
    (1e3 *. Stats.quantile late 1.);
  (* a stall in the daemon shows as a run of requests each waiting
     longer than 20 ms from its due time; print where each run starts *)
  let all = Open_loop.latencies tr in
  let last = ref (-1000) in
  Array.iteri
    (fun i x ->
      if x > 0.02 && i > !last + 400 then begin
        last := i;
        say "stall: from request %d (due at %.3f s), up to %.1f ms" i
          offsets.(i)
          (1e3 *. Array.fold_left Float.max x (Array.sub all i (min 400 (n - i))))
      end)
    all;
  if not a.trace then
    end_to_end ~tally ~setup ~elapsed ~latencies:lat ~peak_rss
  else begin
    say "per-layer (requests %d):" n;
    count_layers ~src:"run" (Layers.counts ~ops:n m0 m1);
    daemon_layers ~src:"run" m0 m1;
    let replay = Array.sub reqs 0 (min n 2000) in
    let acc, overhead, residue =
      serve_replay_layers ~src:"run" ~prepare:Engine.Memo.clear_all
        ~client_p50_us:(1e6 *. Stats.median lat) replay
    in
    span_layers ~src:"run" acc;
    probe_core ();
    probe_artifacts ();
    probe_campaign ~seed:a.seed;
    window_layers ~ops:n cost ~late
      ~client_s:(cost.cpu_s /. float_of_int n);
    layer "trace.overhead_share" "1" overhead;
    layer "residue_share" "1" residue
  end;
  tally

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload (figures-cold|campaign-network|serve-hot|serve-cold) \
     --seed N --seconds S --trace (0|1) --cli PATH";
  exit 2

let parse_args argv =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None and cli = ref "" in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--cli" :: v :: rest -> cli := v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some trace
    when List.mem !workload workloads && seconds > 0. && !cli <> "" ->
    { workload = !workload; seed; seconds; trace; cli = !cli }
  | _ -> usage ()

let () =
  match Array.to_list Sys.argv with
  | [ _; "--probe"; workload ] ->
    setup_in_process workload;
    print_string "ready\n";
    flush stdout
  | _ ->
    let a = parse_args Sys.argv in
    say "workload %s, seed %d, %g s, trace %b" a.workload a.seed a.seconds a.trace;
    let run =
      match a.workload with
      | "figures-cold" -> figures_cold
      | "campaign-network" -> campaign_network
      | "serve-hot" -> serve_hot
      | _ -> serve_cold
    in
    let tally = run a in
    say "attempted %d, failed %d" tally.attempted tally.failed;
    emit tally
