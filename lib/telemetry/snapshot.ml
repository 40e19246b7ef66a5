let schema = "bidir-snapshot/1"

type t = {
  label : string;
  created_at : float;
  counters : (string * int) list;
  histograms : (string * Histogram.t) list;
}

let capture ?(label = "") () =
  { label;
    created_at = Unix.gettimeofday ();
    counters = Metrics.counters ();
    histograms =
      List.map (fun (n, h) -> (n, Histogram.copy h)) (Metrics.histograms ());
  }

(* ------------------------------------------------------------------ *)
(* Persistence                                                         *)
(* ------------------------------------------------------------------ *)

let to_json t =
  Json.Obj
    [ ("schema", Json.String schema);
      ("label", Json.String t.label);
      ("created_at", Json.Float t.created_at);
      ("counters",
       Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) t.counters));
      ("histograms",
       Json.Obj
         (List.map (fun (n, h) -> (n, Histogram.to_json_state h)) t.histograms));
    ]

let of_json j =
  let ( let* ) r f = Result.bind r f in
  let* () =
    match Json.member "schema" j with
    | Some (Json.String s) when s = schema -> Ok ()
    | Some (Json.String s) ->
      Error (Printf.sprintf "snapshot: unsupported schema %S (want %S)" s schema)
    | _ -> Error "snapshot: missing \"schema\""
  in
  let label =
    match Json.member "label" j with Some (Json.String s) -> s | _ -> ""
  in
  let created_at =
    match Json.member "created_at" j with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> 0.
  in
  let* counters =
    match Json.member "counters" j with
    | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (n, v) ->
          let* acc = acc in
          match v with
          | Json.Int i -> Ok ((n, i) :: acc)
          | _ -> Error (Printf.sprintf "snapshot: counter %S is not an int" n))
        (Ok []) fields
      |> Result.map List.rev
    | _ -> Error "snapshot: missing \"counters\" object"
  in
  let* histograms =
    match Json.member "histograms" j with
    | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (n, v) ->
          let* acc = acc in
          match Histogram.of_json_state v with
          | Ok h -> Ok ((n, h) :: acc)
          | Error m -> Error (Printf.sprintf "snapshot: histogram %S: %s" n m))
        (Ok []) fields
      |> Result.map List.rev
    | _ -> Error "snapshot: missing \"histograms\" object"
  in
  Ok { label; created_at; counters; histograms }

let of_string s = Result.bind (Json.parse s) of_json

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string_pretty (to_json t)))

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string s
  | exception Sys_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Diffing                                                             *)
(* ------------------------------------------------------------------ *)

type rule =
  | Exact
  | Time_band of float
  | Budget
  | Ignore

type policy = kind:[ `Counter | `Histogram ] -> string -> rule

let time_metric name =
  let suffix s = String.length name >= String.length s
                 && String.sub name (String.length name - String.length s)
                      (String.length s) = s
  and prefix p = String.length name >= String.length p
                 && String.sub name 0 (String.length p) = p
  in
  suffix "_seconds" || suffix ".seconds" || prefix "phase."

(* Work budgets: counters that measure how much work was spent rather
   than what was computed. Spending less is an improvement, never a
   violation; spending more fails the gate. Their per-solve
   distributions are informational only — the budget counter already
   gates the totals, and any pivot-path improvement would reshape the
   distribution without regressing anything. *)
let budget_counters =
  [ "linprog.pivots"; "linprog.refactor_eliminations";
    "network.assignment_pivots"; "linprog.alloc_bytes";
    (* flat-kernel element updates (pivot row scale + eliminations):
       the FLOP-scale work budget behind linprog.pivots *)
    "linprog.kernel_row_ops" ]

(* Informational distributions: the pool's per-map chunk-balance
   ratio (pure scheduling noise), and retired names. *)
let ignored_histograms =
  [ (* the per-solve pivot histograms are no longer recorded (the
       budget counters gate pivot totals), but baselines written
       before they were retired still carry them: ignoring the names
       keeps those baselines from reporting them Missing *)
    "linprog.pivots_per_solve"; "linprog.pivots_per_warm_solve";
    "engine.pool.chunk_imbalance";
    (* retired: the live writer's heartbeat timer *)
    "telemetry.stream.flush_seconds" ]

(* Retired counters: no longer registered, but baselines written before
   still carry them, and ignoring the names keeps those baselines from
   reporting them Missing. [engine.lp_solves] duplicated
   [linprog.solves]; the telemetry ones counted the live event ring's
   drops and the leveled logger's records; the rate-region ones were
   the boundary, polygon and feasibility memo tables, retired when the
   region became exact; the HBC-advantage memo table never hit; and
   [engine.cache_*] recounted every memo lookup, now summed from the
   [memo.*] counters instead. *)
let ignored_counters =
  [ "engine.lp_solves"; "telemetry.stream.dropped_events";
    "telemetry.log.debug"; "telemetry.log.info"; "telemetry.log.warn";
    "telemetry.log.error"; "telemetry.log.suppressed";
    "memo.rate_region.boundary.hits"; "memo.rate_region.boundary.misses";
    "memo.rate_region.polygon.hits"; "memo.rate_region.polygon.misses";
    "memo.rate_region.feasibility.hits";
    "memo.rate_region.feasibility.misses";
    "memo.optimize.hbc_advantage.hits"; "memo.optimize.hbc_advantage.misses";
    "engine.cache_hits"; "engine.cache_misses" ]

(* Seconds-valued resource budgets: gated one-sided on their sum, like
   Budget counters, but with slack for scheduler noise. Checked before
   the [_seconds] time-band rule — a count-exact mean band would flag
   an *improvement* in pool idle time as drift. *)
let budget_histograms = [ "campaign.pool_idle_seconds" ]

let default_policy ?(tolerance = 0.5) () : policy =
 fun ~kind name ->
  let prefix p = String.length name >= String.length p
                 && String.sub name 0 (String.length p) = p
  in
  match kind with
  | `Counter ->
    if List.mem name budget_counters then Budget
    else if List.mem name ignored_counters then Ignore
      (* gc.* totals move with any code change — unactionable across
         commits; linprog.alloc_bytes above is the gated slice *)
    else if prefix "gc." then Ignore
    else Exact
  | `Histogram ->
    if List.mem name budget_histograms then Budget
    else if List.mem name ignored_histograms then Ignore
    else if time_metric name then Time_band tolerance
    else Exact

type value =
  | Counter of int
  | Hist of { count : int; sum : float; mean : float; min_v : float; max_v : float }

type status = Match | Within_band | Drift | Missing | New

type comparison = {
  metric : string;
  rule : rule;
  baseline : value option;
  current : value option;
  status : status;
  detail : string;
}

type diff = {
  base_label : string;
  cur_label : string;
  comparisons : comparison list;
}

let hist_value h =
  Hist
    { count = Histogram.count h;
      sum = Histogram.sum h;
      mean = Histogram.mean h;
      min_v = Histogram.min_value h;
      max_v = Histogram.max_value h;
    }

let pct x = 100. *. x

let compare_counters rule a b =
  match rule with
  | Ignore -> (Match, "ignored by policy")
  | Budget ->
    (* budget counters gate one-sided: staying at or under the baseline
       passes (an improvement is reported, not flagged), exceeding it
       is a regression *)
    if a = b then (Match, "")
    else if b < a then
      ( Within_band,
        Printf.sprintf "budget improved: %d -> %d (%+d)" a b (b - a) )
    else
      ( Drift,
        Printf.sprintf "budget exceeded: %d -> %d (%+d)" a b (b - a) )
  | Exact | Time_band _ ->
    (* counters are deterministic by design: any drift is a violation,
       whatever band the name would get as a histogram *)
    if a = b then (Match, "")
    else
      ( Drift,
        Printf.sprintf "counter changed: %d -> %d (%+d)" a b (b - a) )

let compare_histograms rule a b =
  match rule with
  | Ignore -> (Match, "ignored by policy")
  | Budget ->
    (* seconds-valued resource budgets (pool idle time): one-sided on
       the summed value, with both relative and absolute slack so
       scheduler noise doesn't flap the gate *)
    let sa = Histogram.sum a and sb = Histogram.sum b in
    let allowed = Float.max (0.5 *. Float.abs sa) 1e-3 in
    if sa = sb then (Match, "")
    else if sb < sa then
      ( Within_band,
        Printf.sprintf "budget improved: %.3g -> %.3g s" sa sb )
    else if sb -. sa <= allowed then
      ( Within_band,
        Printf.sprintf "budget within slack: %.3g -> %.3g s" sa sb )
    else
      ( Drift,
        Printf.sprintf "budget exceeded: %.3g -> %.3g s (+%.3g)" sa sb
          (sb -. sa) )
  | Exact ->
    if not (Histogram.same_geometry a b) then
      (Drift, "histogram geometry changed")
    else if Histogram.bucket_counts a <> Histogram.bucket_counts b then
      ( Drift,
        Printf.sprintf "histogram distribution changed (count %d -> %d)"
          (Histogram.count a) (Histogram.count b) )
    else if
      Histogram.sum a <> Histogram.sum b
      || Histogram.min_value a <> Histogram.min_value b
      || Histogram.max_value a <> Histogram.max_value b
    then (Drift, "histogram sum/min/max changed")
    else (Match, "")
  | Time_band tol ->
    if Histogram.count a <> Histogram.count b then
      ( Drift,
        Printf.sprintf "sample count changed: %d -> %d" (Histogram.count a)
          (Histogram.count b) )
    else if Histogram.count a = 0 then (Match, "")
    else begin
      let ma = Histogram.mean a and mb = Histogram.mean b in
      (* small absolute slack so micro-histograms (means of a few tens
         of microseconds) don't flap on scheduler noise *)
      let allowed = Float.max (tol *. Float.abs ma) 5e-5 in
      if ma = mb then (Match, "")
      else if Float.abs (mb -. ma) <= allowed then
        ( Within_band,
          Printf.sprintf "mean %.3g -> %.3g s (%+.1f%%, band %.0f%%)" ma mb
            (pct ((mb -. ma) /. Float.max (Float.abs ma) 1e-12))
            (pct tol) )
      else
        ( Drift,
          Printf.sprintf
            "mean %.3g -> %.3g s (%+.1f%% exceeds %.0f%% band)" ma mb
            (pct ((mb -. ma) /. Float.max (Float.abs ma) 1e-12))
            (pct tol) )
    end

type entry = C of int | H of Histogram.t

let lookup snap metric =
  match List.assoc_opt metric snap.counters with
  | Some v -> Some (C v)
  | None -> (
    match List.assoc_opt metric snap.histograms with
    | Some h -> Some (H h)
    | None -> None)

let entry_value = function C v -> Counter v | H h -> hist_value h
let entry_kind = function C _ -> `Counter | H _ -> `Histogram

let diff ?policy base cur =
  let policy = match policy with Some p -> p | None -> default_policy () in
  let names l = List.map fst l in
  let all_names =
    List.sort_uniq compare
      (names base.counters @ names cur.counters @ names base.histograms
      @ names cur.histograms)
  in
  let comparisons =
    List.map
      (fun metric ->
        match (lookup base metric, lookup cur metric) with
        | Some (C a), Some (C b) ->
          let rule = policy ~kind:`Counter metric in
          let status, detail = compare_counters rule a b in
          { metric; rule; baseline = Some (Counter a);
            current = Some (Counter b); status; detail }
        | Some (H a), Some (H b) ->
          let rule = policy ~kind:`Histogram metric in
          let status, detail = compare_histograms rule a b in
          { metric; rule; baseline = Some (hist_value a);
            current = Some (hist_value b); status; detail }
        | Some a, Some b ->
          (* registered as a counter on one side, a histogram on the
             other: a kind change is always structural drift *)
          { metric; rule = Exact; baseline = Some (entry_value a);
            current = Some (entry_value b); status = Drift;
            detail = "metric kind changed" }
        | Some a, None ->
          let rule = policy ~kind:(entry_kind a) metric in
          let status, detail =
            match rule with
            | Ignore -> (Match, "ignored by policy")
            | _ -> (Missing, "present in baseline, absent in current run")
          in
          { metric; rule; baseline = Some (entry_value a); current = None;
            status; detail }
        | None, Some b ->
          { metric; rule = policy ~kind:(entry_kind b) metric;
            baseline = None; current = Some (entry_value b); status = New;
            detail = "absent in baseline (new metric)" }
        | None, None -> assert false)
      all_names
  in
  { base_label = base.label; cur_label = cur.label; comparisons }

let violation c = match c.status with Drift | Missing -> true | _ -> false
let violations d = List.filter violation d.comparisons
let ok d = violations d = []

let identical d =
  List.for_all (fun c -> c.status = Match) d.comparisons
