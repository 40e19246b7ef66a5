(* The bidir-live/2 file: writer, strict reader and renderer. The frame
   uses only timestamps carried by the file, so the same file always
   renders the same frame and `bidir top --once` output is diffable. *)

let schema = "bidir-live/2"

type progress = {
  t : float;
  name : string;
  completed : int;
  total : int;
  rate : float;
  ci : float option;
  ci_target : float option;
  eta : float option;
}

let opt_float = function None -> Json.Null | Some f -> Json.Float f

let progress_to_json p =
  Json.Obj
    [ ("record", Json.String "progress");
      ("t", Json.Float p.t);
      ("name", Json.String p.name);
      ("completed", Json.Int p.completed);
      ("total", Json.Int p.total);
      ("rate", Json.Float p.rate);
      ("ci", opt_float p.ci);
      ("ci_target", opt_float p.ci_target);
      ("eta", opt_float p.eta);
    ]

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

type writer = {
  oc : out_channel;
  interval : float;
  mutable last_hb : float;
  mutable seq : int;
  mutable events : int;
  mutable pending : progress option;
  (* what the previous heartbeats sent: counter values and histogram
     sample counts, so the next one carries only what moved *)
  sent_counters : (string, int) Hashtbl.t;
  sent_counts : (string, int) Hashtbl.t;
}

let current : writer option ref = ref None

let events_c = Metrics.counter "telemetry.stream.events"
let heartbeats_c = Metrics.counter "telemetry.stream.heartbeats"

let on_main fn =
  if not (Domain.is_main_domain ()) then
    invalid_arg ("Live." ^ fn ^ ": the live writer belongs to the main domain")

let write_line w json =
  output_string w.oc (Json.to_string json);
  output_char w.oc '\n'

(* the entries whose key moved since it was last sent; a name never
   sent counts as moved *)
let changed sent key entries =
  List.filter
    (fun (name, v) ->
      let k = key v in
      let moved = Hashtbl.find_opt sent name <> Some k in
      if moved then Hashtbl.replace sent name k;
      moved)
    entries

let heartbeat w =
  Option.iter
    (fun p ->
      write_line w (progress_to_json p);
      w.events <- w.events + 1;
      Metrics.incr events_c)
    w.pending;
  w.pending <- None;
  w.seq <- w.seq + 1;
  let now = Unix.gettimeofday () in
  let registry =
    { Snapshot.label = "";
      created_at = now;
      counters = changed w.sent_counters Fun.id (Metrics.counters ());
      histograms =
        changed w.sent_counts Histogram.count (Metrics.histograms ());
    }
  in
  write_line w
    (Json.Obj
       [ ("record", Json.String "heartbeat");
         ("t", Json.Float now);
         ("seq", Json.Int w.seq);
         ("registry", Snapshot.to_json registry);
       ]);
  Metrics.incr heartbeats_c;
  w.last_hb <- now;
  flush w.oc

let is_open () = Option.is_some !current

let close_live () =
  match !current with
  | None -> ()
  | Some w ->
    on_main "close_live";
    current := None;
    heartbeat w;
    write_line w
      (Json.Obj
         [ ("record", Json.String "final");
           ("t", Json.Float (Unix.gettimeofday ()));
           ("heartbeats", Json.Int w.seq);
           ("events", Json.Int w.events);
         ]);
    close_out_noerr w.oc

let open_live ?(interval = 0.) path =
  on_main "open_live";
  close_live ();
  let w =
    { oc = open_out path;
      interval;
      last_hb = neg_infinity;
      seq = 0;
      events = 0;
      pending = None;
      sent_counters = Hashtbl.create 64;
      sent_counts = Hashtbl.create 32;
    }
  in
  write_line w
    (Json.Obj
       [ ("schema", Json.String schema);
         ("record", Json.String "start");
         ("t", Json.Float (Unix.gettimeofday ()));
         ("interval", Json.Float interval);
       ]);
  flush w.oc;
  current := Some w

let note_progress ~name ~completed ~total ?(rate = 0.) ?ci_half_width
    ?ci_target ?eta_seconds () =
  match !current with
  | None -> ()
  | Some w ->
    on_main "note_progress";
    w.pending <-
      Some
        { t = Unix.gettimeofday ();
          name;
          completed;
          total;
          rate;
          ci = ci_half_width;
          ci_target;
          eta = eta_seconds;
        }

let pulse_live () =
  match !current with
  | None -> ()
  | Some w ->
    on_main "pulse_live";
    if Unix.gettimeofday () -. w.last_hb >= w.interval then heartbeat w

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

type state = {
  mutable started_at : float option;
  mutable last_t : float;
  mutable heartbeats : int;
  mutable last_seq : int;
  mutable finished : bool;
  mutable records : int;
  mutable parse_errors : int;
  mutable monotone : bool;
  mutable progress : progress option;
  counters : (string, int) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
}

let create () =
  { started_at = None;
    last_t = 0.;
    heartbeats = 0;
    last_seq = 0;
    finished = false;
    records = 0;
    parse_errors = 0;
    monotone = true;
    progress = None;
    counters = Hashtbl.create 64;
    histograms = Hashtbl.create 32;
  }

(* A record with a required field missing or ill-typed is a parse error
   and is skipped whole: every required field is read (and may raise)
   before the record's first state mutation, so none applies partly. *)
exception Invalid_record

let num j k =
  match Json.member k j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let fnum j k = Option.value ~default:0. (num j k)

let rint j k =
  match Json.member k j with Some (Json.Int i) -> i | _ -> raise Invalid_record

let progress_of_json j =
  let completed = rint j "completed" and total = rint j "total" in
  { t = fnum j "t";
    name =
      (match Json.member "name" j with Some (Json.String s) -> s | _ -> "");
    completed;
    total;
    rate = fnum j "rate";
    ci = num j "ci";
    ci_target = num j "ci_target";
    eta = num j "eta";
  }

let apply_record st j =
  match Json.member "record" j with
  | Some (Json.String "start") ->
    if Json.member "schema" j <> Some (Json.String schema) then
      raise Invalid_record;
    st.started_at <- num j "t"
  | Some (Json.String "progress") ->
    let p = progress_of_json j in
    (match st.progress with
    | Some prev when prev.name = p.name && p.completed < prev.completed ->
      st.monotone <- false
    | _ -> ());
    st.progress <- Some p
  | Some (Json.String "heartbeat") ->
    let seq = rint j "seq" in
    let registry =
      match Option.map Snapshot.of_json (Json.member "registry" j) with
      | Some (Ok r) -> r
      | Some (Error _) | None -> raise Invalid_record
    in
    st.heartbeats <- st.heartbeats + 1;
    if seq <= st.last_seq then st.monotone <- false;
    st.last_seq <- seq;
    List.iter (fun (n, v) -> Hashtbl.replace st.counters n v) registry.counters;
    List.iter
      (fun (n, h) -> Hashtbl.replace st.histograms n h)
      registry.histograms
  | Some (Json.String "final") ->
    ignore (rint j "heartbeats", rint j "events");
    st.finished <- true
  | Some (Json.String _) -> () (* unknown kinds: forward compatibility *)
  | _ -> raise Invalid_record

let feed_line st line =
  let line = String.trim line in
  if line <> "" then
    match Json.parse line with
    | Error _ -> st.parse_errors <- st.parse_errors + 1
    | Ok j -> (
      match apply_record st j with
      | () ->
        st.records <- st.records + 1;
        Option.iter (fun t -> st.last_t <- Float.max st.last_t t) (num j "t")
      | exception Invalid_record -> st.parse_errors <- st.parse_errors + 1)

let feed_string st text =
  List.iter (feed_line st) (String.split_on_char '\n' text)

let last_t st = st.last_t
let heartbeats st = st.heartbeats
let finished st = st.finished
let records st = st.records
let parse_errors st = st.parse_errors
let monotone st = st.monotone
let progress st = st.progress

let elapsed st =
  match st.started_at with
  | Some t0 -> Float.max 0. (st.last_t -. t0)
  | None -> 0.

let sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let registry st =
  { Snapshot.label = "live";
    created_at = st.last_t;
    counters = sorted st.counters;
    histograms = sorted st.histograms;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let bar frac width =
  let frac = Float.max 0. (Float.min 1. frac) in
  let k = int_of_float ((frac *. float_of_int width) +. 0.5) in
  String.make k '#' ^ String.make (width - k) '.'

let seconds s =
  if s >= 3600. then Printf.sprintf "%.1f h" (s /. 3600.)
  else if s >= 60. then Printf.sprintf "%.1f min" (s /. 60.)
  else Printf.sprintf "%.1f s" s

(* the latency table: every *_seconds histogram except the pool
   busy/idle pair, which gets its own utilization line *)
let pool_busy = "engine.pool.busy_seconds"
let pool_idle = "engine.pool.idle_seconds"

let is_latency name =
  String.ends_with ~suffix:"_seconds" name
  && name <> pool_busy && name <> pool_idle

let render st =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "bidir live (%s) — %d heartbeats, %d records%s%s" schema st.heartbeats
    st.records
    (if st.parse_errors > 0 then
       Printf.sprintf ", %d unparseable lines" st.parse_errors
     else "")
    (if st.finished then " — finished" else " — running");
  line "elapsed     %s" (seconds (elapsed st));
  (match st.progress with
  | None -> line "progress    (none yet)"
  | Some p ->
    (* a total of 0 is unknown (a daemon without --max-requests): the
       count alone, no bar *)
    if p.total <= 0 then line "progress    %s  %d" p.name p.completed
    else begin
      let frac = float_of_int p.completed /. float_of_int p.total in
      line "progress    %s  %d/%d (%.1f%%)" p.name p.completed p.total
        (100. *. frac);
      line "            [%s]" (bar frac 40)
    end;
    line "throughput  %.2f/s%s" p.rate
      (match p.eta with
      | Some eta -> Printf.sprintf "   eta %s" (seconds eta)
      | None -> "");
    Option.iter
      (fun hw ->
        line "ci          half-width %.6g%s" hw
          (match p.ci_target with
          | Some t -> Printf.sprintf " (target %.6g)" t
          | None -> ""))
      p.ci);
  let hs =
    List.filter (fun (_, h) -> Histogram.count h > 0) (registry st).histograms
  in
  let latencies = List.filter (fun (n, _) -> is_latency n) hs in
  if latencies <> [] then begin
    line "latencies   %-34s %8s %10s %10s %10s" "" "n" "p50" "p90" "p99";
    List.iter
      (fun (name, h) ->
        let p50, p90, p99 = Histogram.percentiles h in
        line "            %-34s %8d %10.3g %10.3g %10.3g" name
          (Histogram.count h) p50 p90 p99)
      latencies
  end;
  (match (List.assoc_opt pool_busy hs, List.assoc_opt pool_idle hs) with
  | Some busy, Some idle ->
    let busy = Histogram.sum busy and idle = Histogram.sum idle in
    line "pool        busy %s, idle %s%s" (seconds busy) (seconds idle)
      (if busy +. idle > 0. then
         Printf.sprintf " (%.1f%% idle)" (100. *. idle /. (busy +. idle))
       else "")
  | _ -> ());
  let counter name =
    Option.value ~default:0 (Hashtbl.find_opt st.counters name)
  in
  let alloc = counter "gc.alloc_bytes" in
  let minor = counter "gc.minor_collections" in
  let major = counter "gc.major_collections" in
  if alloc > 0 || minor > 0 || major > 0 then
    line "gc          alloc %.1f MB, minor %d, major %d"
      (float_of_int alloc /. 1e6)
      minor major;
  Buffer.contents b

let to_json st =
  let reg = registry st in
  Json.Obj
    [ ("schema", Json.String schema);
      ("started_at", opt_float st.started_at);
      ("last_t", Json.Float st.last_t);
      ("elapsed", Json.Float (elapsed st));
      ("heartbeats", Json.Int st.heartbeats);
      ("records", Json.Int st.records);
      ("parse_errors", Json.Int st.parse_errors);
      ("finished", Json.Bool st.finished);
      ("monotone", Json.Bool st.monotone);
      ( "progress",
        match st.progress with
        | None -> Json.Null
        | Some p -> progress_to_json p );
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) reg.counters) );
      ( "histograms",
        Json.Obj
          (List.map (fun (k, h) -> (k, Histogram.to_json h)) reg.histograms) );
    ]
