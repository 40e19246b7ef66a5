type counter = { cell : int Atomic.t }

type entry = C of counter | H of Histogram.t

let lock = Mutex.create ()
let registry : (string, entry) Hashtbl.t = Hashtbl.create 64

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counter name =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (C c) -> c
      | Some (H _) ->
        invalid_arg
          (Printf.sprintf "Metrics.counter: %S is registered as a histogram"
             name)
      | None ->
        let c = { cell = Atomic.make 0 } in
        Hashtbl.add registry name (C c);
        c)

let incr c = Atomic.incr c.cell
let add c n = ignore (Atomic.fetch_and_add c.cell n : int)
let value c = Atomic.get c.cell

let histogram ?lo ?growth ?buckets name =
  with_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (H h) -> h
      | Some (C _) ->
        invalid_arg
          (Printf.sprintf "Metrics.histogram: %S is registered as a counter"
             name)
      | None ->
        let h = Histogram.create ?lo ?growth ?buckets () in
        Hashtbl.add registry name (H h);
        h)

let observe = Histogram.observe
let observe_int = Histogram.observe_int

(* [match ... with exception] rather than [Fun.protect]: this wraps
   every LP solve, and the two closures [Fun.protect] takes would be
   allocated per call. *)
let time h f =
  let t0 = Unix.gettimeofday () in
  match f () with
  | v ->
    Histogram.observe h (Unix.gettimeofday () -. t0);
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Histogram.observe h (Unix.gettimeofday () -. t0);
    Printexc.raise_with_backtrace e bt

let sorted_entries () =
  with_lock (fun () ->
      Hashtbl.fold (fun name entry acc -> (name, entry) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters () =
  List.filter_map
    (function name, C c -> Some (name, value c) | _, H _ -> None)
    (sorted_entries ())

let histograms () =
  List.filter_map
    (function name, H h -> Some (name, h) | _, C _ -> None)
    (sorted_entries ())

let reset () =
  List.iter
    (fun (_, entry) ->
      match entry with
      | C c -> Atomic.set c.cell 0
      | H h -> Histogram.reset h)
    (sorted_entries ())

let to_json () =
  Json.Obj
    [ ("counters",
       Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) (counters ())));
      ("histograms",
       Json.Obj
         (List.map (fun (n, h) -> (n, Histogram.to_json h)) (histograms ())));
    ]

let to_text () =
  let b = Buffer.create 512 in
  List.iter
    (fun (n, v) -> Printf.bprintf b "%-40s %d\n" n v)
    (counters ());
  List.iter
    (fun (n, h) ->
      let p50, p90, p99 = Histogram.percentiles h in
      Printf.bprintf b
        "%-40s count=%d mean=%.3g p50=%.3g p90=%.3g p99=%.3g\n" n
        (Histogram.count h) (Histogram.mean h) p50 p90 p99)
    (histograms ());
  Buffer.contents b
