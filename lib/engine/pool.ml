let default = Atomic.make 1

let set_default_domains n =
  if n < 1 then invalid_arg "Engine.Pool.set_default_domains: n < 1";
  Atomic.set default n

let default_domains () = Atomic.get default

(* Workers flag themselves so a nested map runs inline rather than
   spawning or queueing work from inside a worker (which could deadlock
   a fully-busy pool). The caller's domain is flagged for the duration
   of its own chunk for the same reason. *)
let in_worker = Domain.DLS.new_key (fun () -> false)

(* Persistent worker domains: spawning a domain costs ~1 ms, far more
   than a typical sweep chunk, so workers are spawned once on first
   parallel use, kept blocked on a condition variable between maps, and
   joined from an [at_exit] hook. *)
let pool_lock = Mutex.create ()
let work_cond = Condition.create ()
let pending : (unit -> unit) Queue.t = Queue.create ()
let shutting_down = ref false
let workers : unit Domain.t list ref = ref []
let worker_count = ref 0
let exit_hook_registered = ref false

let rec worker_loop () =
  Mutex.lock pool_lock;
  while Queue.is_empty pending && not !shutting_down do
    Condition.wait work_cond pool_lock
  done;
  if Queue.is_empty pending then Mutex.unlock pool_lock (* shutdown *)
  else begin
    let job = Queue.pop pending in
    Mutex.unlock pool_lock;
    job ();
    worker_loop ()
  end

let teardown () =
  Mutex.lock pool_lock;
  shutting_down := true;
  Condition.broadcast work_cond;
  Mutex.unlock pool_lock;
  List.iter Domain.join !workers;
  workers := [];
  worker_count := 0

let ensure_workers n =
  Mutex.lock pool_lock;
  if not !exit_hook_registered then begin
    exit_hook_registered := true;
    at_exit teardown
  end;
  while !worker_count < n && not !shutting_down do
    incr worker_count;
    workers :=
      Domain.spawn (fun () ->
          Domain.DLS.set in_worker true;
          worker_loop ())
      :: !workers
  done;
  Mutex.unlock pool_lock

let prewarm ?domains () =
  let d =
    match domains with
    | Some d when d < 1 -> invalid_arg "Engine.Pool.prewarm: domains < 1"
    | Some d -> d
    | None -> default_domains ()
  in
  if d > 1 then ensure_workers (d - 1)

(* Wall time per executed chunk (caller's and workers'); parallel maps
   only, so an empty histogram means every map ran sequentially. *)
let chunk_seconds = Telemetry.Metrics.histogram "engine.pool.chunk_seconds"

(* Utilization accounting, one observation per parallel map: [busy] is
   the summed chunk execution time, [idle] is [d * wall - busy] — the
   domain-seconds lost to fan-out, queue latency and uneven chunks.
   [queue_wait] is per queued chunk (enqueue to start; the caller's
   chunk 0 never queues). [chunk_imbalance] is max/mean chunk time in
   [1, d]: 1.0 = perfectly even split, d = one chunk did everything. *)
let busy_seconds = Telemetry.Metrics.histogram "engine.pool.busy_seconds"
let idle_seconds = Telemetry.Metrics.histogram "engine.pool.idle_seconds"
let queue_wait_seconds = Telemetry.Metrics.histogram "engine.pool.queue_wait_seconds"
let chunk_imbalance =
  Telemetry.Metrics.histogram ~lo:1. ~growth:1.02 ~buckets:256
    "engine.pool.chunk_imbalance"

(* Layers that own a batch of maps (the campaign runner) can claim the
   idle seconds of every parallel map issued in their dynamic extent by
   installing a sink histogram; attribution is domain-local so
   concurrent unrelated maps don't cross-contaminate. *)
let idle_sink : Telemetry.Histogram.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let with_idle_sink h f =
  let old = Domain.DLS.get idle_sink in
  Domain.DLS.set idle_sink (Some h);
  Fun.protect ~finally:(fun () -> Domain.DLS.set idle_sink old) f

let map_array ?domains f items =
  let n = Array.length items in
  let d =
    match domains with
    | Some d when d < 1 -> invalid_arg "Engine.Pool.map: domains < 1"
    | Some d -> d
    | None -> default_domains ()
  in
  let d = min d n in
  (* The span wraps both branches so a trace contains the same pool.map
     span set whatever the domain count — only the chunk spans below it
     (cat "pool") vary with d. *)
  let args =
    if Telemetry.Span.enabled () then
      [ ("items", Telemetry.Json.Int n); ("domains", Telemetry.Json.Int d) ]
    else []
  in
  Telemetry.Span.with_span ~cat:"pool" "pool.map" ~args
  @@ fun () ->
  if d <= 1 || Domain.DLS.get in_worker then Array.map f items
  else begin
    (* capture the caller's span context so spans opened inside pool
       tasks report this map's enclosing span as their logical parent,
       whichever domain they run on *)
    let span_ctx = Telemetry.Span.context () in
    let t_fan = Unix.gettimeofday () in
    ensure_workers (d - 1);
    let results = Array.make n None in
    let first_error = Atomic.make None in
    let remaining = Atomic.make d in
    let done_lock = Mutex.create () in
    let done_cond = Condition.create () in
    (* per-chunk wall time; slot k is written only by the domain running
       chunk k, and all writes happen-before the caller's accounting
       (chunk completion is published through [remaining]) *)
    let chunk_durs = Array.make d 0. in
    let t_enq = ref t_fan in
    let run_chunk k =
      let t_start = Unix.gettimeofday () in
      if k > 0 then
        Telemetry.Metrics.observe queue_wait_seconds
          (Float.max 0. (t_start -. !t_enq));
      (try
         (* chunk k owns indices [k*n/d, (k+1)*n/d) *)
         let body () =
           Telemetry.Span.with_span ~cat:"pool" "pool.chunk"
             ~args:[ ("chunk", Telemetry.Json.Int k) ]
             (fun () ->
               for i = k * n / d to ((k + 1) * n / d) - 1 do
                 results.(i) <- Some (f items.(i))
               done)
         in
         Fun.protect
           ~finally:(fun () ->
             let dt = Unix.gettimeofday () -. t_start in
             Telemetry.Metrics.observe chunk_seconds dt;
             chunk_durs.(k) <- dt)
           (fun () ->
             if Telemetry.Span.enabled () then
               Telemetry.Span.with_context span_ctx body
             else body ())
       with e -> ignore (Atomic.compare_and_set first_error None (Some e)));
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        Mutex.lock done_lock;
        Condition.broadcast done_cond;
        Mutex.unlock done_lock
      end
    in
    t_enq := Unix.gettimeofday ();
    Mutex.lock pool_lock;
    for k = 1 to d - 1 do
      Queue.add (fun () -> run_chunk k) pending
    done;
    Condition.broadcast work_cond;
    Mutex.unlock pool_lock;
    (* The caller runs its own chunk, then helps drain the queue rather
       than sleeping — so a map never waits on the scheduler when its
       chunks haven't been picked up yet (crucial on few-core hosts). *)
    (* The flag must come back down even if the drain dies (a poisoned
       mutex, an exception from a condition wait): leaving it set would
       silently force every later map on this domain to run
       sequentially. [run_chunk] itself never raises — user exceptions
       are parked in [first_error] — so the protect only matters for
       the drain's own synchronization failures. *)
    Domain.DLS.set in_worker true;
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set in_worker false)
      (fun () ->
        run_chunk 0;
        let rec drain () =
          if Atomic.get remaining > 0 then begin
            Mutex.lock pool_lock;
            let job =
              if Queue.is_empty pending then None else Some (Queue.pop pending)
            in
            Mutex.unlock pool_lock;
            match job with
            | Some j ->
              j ();
              drain ()
            | None ->
              (* remaining chunks are in flight on workers *)
              Mutex.lock done_lock;
              while Atomic.get remaining > 0 do
                Condition.wait done_cond done_lock
              done;
              Mutex.unlock done_lock
          end
        in
        drain ());
    let wall = Unix.gettimeofday () -. t_fan in
    let busy = Array.fold_left ( +. ) 0. chunk_durs in
    let idle = Float.max 0. ((float_of_int d *. wall) -. busy) in
    Telemetry.Metrics.observe busy_seconds busy;
    Telemetry.Metrics.observe idle_seconds idle;
    if busy > 0. then begin
      let mx = Array.fold_left Float.max 0. chunk_durs in
      Telemetry.Metrics.observe chunk_imbalance (mx *. float_of_int d /. busy)
    end;
    (match Domain.DLS.get idle_sink with
     | Some h -> Telemetry.Histogram.observe h idle
     | None -> ());
    (match Atomic.get first_error with Some e -> raise e | None -> ());
    Array.map (function Some v -> v | None -> assert false) results
  end

let map ?domains f items =
  Array.to_list (map_array ?domains f (Array.of_list items))
