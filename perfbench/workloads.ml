(* The operations the benchmark times, and how each output is checked.
   Everything here calls the program through its public functions. *)

module Json = Telemetry.Json

let span name f = Telemetry.Span.with_span ~cat:"bench" name f

(* ------------------------------------------------------------------ *)
(* figures-cold: the 11 artifacts of `bidir figures all`               *)
(* ------------------------------------------------------------------ *)

type artifact =
  | Figure of Bidir.Figures.figure
  | Table of Bidir.Figures.table
  | Text of string

let artifacts =
  let open Bidir in
  [ ("fig3", fun () -> Figure (Figures.fig3 ()));
    ("fig3-snr", fun () -> Figure (Figures.fig3_snr ()));
    ("fig4a", fun () -> Figure (Figures.fig4 ~power_db:0. ()));
    ("fig4b", fun () -> Figure (Figures.fig4 ~power_db:10. ()));
    ("gap", fun () -> Table (Figures.gap_table ()));
    ("crossover", fun () -> Table (Figures.crossover_table ()));
    ("hbc-witness", fun () -> Table (Figures.hbc_witness_table ()));
    ("coding-gain", fun () -> Table (Figures.coding_gain_table ()));
    ("discrete", fun () -> Table (Figures.discrete_table ()));
    ("ergodic", fun () -> Table (Ergodic.ergodic_table ~blocks:400 ()));
    ("map", fun () -> Text (Report.protocol_map ()));
  ]

let artifact_ids = List.map fst artifacts

let render = function
  | Figure f -> Report.render_figure f
  | Table t -> Report.render_table t
  | Text s -> s

(* One cold `figures all`: empty every memo table, then evaluate and
   render each artifact as the CLI prints it. *)
let figures_all () =
  span "bench.memo.clear" Engine.Memo.clear_all;
  let b = Buffer.create 65536 in
  List.iter
    (fun (id, eval) ->
      let a = span ("bench.eval." ^ id) eval in
      Buffer.add_string b (span "bench.render" (fun () -> render a));
      Buffer.add_char b '\n')
    artifacts;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* campaign-network: one network campaign, cold caches                 *)
(* ------------------------------------------------------------------ *)

let replications = 48

let campaign_json ~seed ~domains =
  span "bench.memo.clear" Engine.Memo.clear_all;
  let r =
    Campaign.Runner.run
      (Campaign.Runner.default_config ~seed ~domains ~replications ())
      (Campaign.Workloads.network ())
  in
  span "bench.json" (fun () ->
      Json.to_string (Campaign.Runner.result_to_json r))

(* ------------------------------------------------------------------ *)
(* serve: queries and their request bytes                             *)
(* ------------------------------------------------------------------ *)

let ok = function Ok q -> q | Error e -> failwith ("query: " ^ e)

(* A query nobody asked before: random power and strictly asymmetric
   gains g_ab <= g_ar < g_br (a symmetric relay makes the sum-rate
   vertex depend on warm-solver history), kinds in the default
   3:2:1 sumrate/select/region mix. *)
let unique_query rng =
  let f lo hi = Prob.Rng.float_range rng ~lo ~hi in
  let power_db = f (-5.) 20. in
  let g_ab = f (-2.) 2. in
  let g_ar = g_ab +. f 0. 4. in
  let g_br = g_ar +. f 0.5 4. in
  let gains_db = (g_ab, g_ar, g_br) in
  let open Bidir in
  match Prob.Rng.int rng 6 with
  | 0 | 1 | 2 ->
    let protocol, bound =
      match Prob.Rng.int rng 4 with
      | 0 -> (None, Bound.Inner)
      | 1 -> (Some Protocol.Mabc, Bound.Inner)
      | 2 -> (Some Protocol.Tdbc, Bound.Inner)
      | _ -> (Some Protocol.Tdbc, Bound.Outer)
    in
    ok (Serve.Query.make ~kind:Serve.Query.Sumrate ~power_db ~gains_db ~bound
          ?protocol ())
  | 3 | 4 ->
    ok (Serve.Query.make ~kind:Serve.Query.Select ~power_db ~gains_db
          ~bound:Bound.Inner ())
  | _ ->
    let protocol = if Prob.Rng.bool rng then Protocol.Mabc else Protocol.Tdbc in
    ok (Serve.Query.make ~kind:Serve.Query.Region ~power_db ~gains_db
          ~bound:Bound.Inner ~protocol ~weights:33 ())

let unique_queries ~seed n =
  let rng = Prob.Rng.create ~seed in
  let seen = Hashtbl.create n in
  let rec fresh () =
    let q = unique_query rng in
    let k = Serve.Query.key q in
    if Hashtbl.mem seen k then fresh ()
    else begin
      Hashtbl.add seen k ();
      q
    end
  in
  Array.init n (fun _ -> fresh ())

(* Draws from the daemon's own scenario pools, so a filled response
   cache answers every one. *)
let pool_queries ~seed n =
  let rng = Prob.Rng.create ~seed in
  Array.init n (fun _ -> Serve.Scenarios.pick rng Serve.Scenarios.default_mix)

let all_pool_queries () =
  List.concat_map Serve.Scenarios.pool
    [ Serve.Query.Sumrate; Serve.Query.Select; Serve.Query.Region ]

(* Fill the in-process response cache the way a warmed daemon's is. *)
let fill_response_cache () =
  ignore (Serve.Service.respond_batch (all_pool_queries ()) : string list)

(* Both front doors, alternating as a client mix would: even indices
   as GET with URL parameters, odd as POST /v1/query with a JSON body. *)
let request_bytes i (q : Serve.Query.t) =
  if i mod 2 = 0 then begin
    let g_ab, g_ar, g_br = q.gains_db in
    Printf.sprintf
      "GET /v1/%s?power_db=%.17g&g_ab=%.17g&g_ar=%.17g&g_br=%.17g&bound=%s&weights=%d%s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
      (Serve.Query.kind_name q.kind) q.power_db g_ab g_ar g_br
      (match q.bound with Bidir.Bound.Inner -> "inner" | Bidir.Bound.Outer -> "outer")
      q.weights
      (match q.protocol with
      | Some p -> "&protocol=" ^ Bidir.Protocol.name p
      | None -> "")
  end
  else
    let body = Json.to_string (Serve.Query.to_json q) in
    Printf.sprintf
      "POST /v1/query HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
      (String.length body) body

(* The response envelope echoes the query it answered. *)
let echoes_key key body =
  match Json.parse body with
  | Ok j -> (
    match (Json.member "query" j, Json.member "result" j) with
    | Some echo, Some _ -> (
      match Serve.Query.of_json echo with
      | Ok q -> Serve.Query.key q = key
      | Error _ -> false)
    | _ -> false)
  | Error _ -> false

(* Two JSON answers agree when they have the same shape and every
   number is within one 1e-6 quantum (the daemon quantizes to 1e-6). *)
let rec agrees a b =
  let close x y = Float.abs (x -. y) <= 1.5e-6 in
  match (a, b) with
  | Json.Float x, Json.Float y -> close x y
  | Json.Float x, Json.Int y | Json.Int y, Json.Float x ->
    close x (float_of_int y)
  | Json.List xs, Json.List ys ->
    List.length xs = List.length ys && List.for_all2 agrees xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (l, y) -> k = l && agrees x y) xs ys
  | _ -> Json.equal a b

(* The in-process re-check of a daemon answer. *)
let answer_agrees (q : Serve.Query.t) body =
  match Json.parse body with
  | Ok j -> (
    match Json.member "result" j with
    | Some r -> agrees r (Serve.Query.eval q)
    | None -> false)
  | Error _ -> false
