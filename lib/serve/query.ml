module Json = Telemetry.Json

type kind = Sumrate | Select | Region

let kind_name = function
  | Sumrate -> "sumrate"
  | Select -> "select"
  | Region -> "region"

let kind_of_string = function
  | "sumrate" -> Some Sumrate
  | "select" -> Some Select
  | "region" -> Some Region
  | _ -> None

type t = {
  kind : kind;
  power_db : float;
  gains_db : float * float * float;
  bound : Bidir.Bound.kind;
  protocol : Bidir.Protocol.t option;
  weights : int;
}

let db_ok x = Float.is_finite x && x >= -60. && x <= 60.

let make ~kind ?(power_db = 10.) ?(gains_db = (0., 5., 7.))
    ?(bound = Bidir.Bound.Inner) ?protocol ?(weights = 33) () =
  let g_ab, g_ar, g_br = gains_db in
  if not (db_ok power_db) then Error "power_db out of range [-60, 60] dB"
  else if not (db_ok g_ab && db_ok g_ar && db_ok g_br) then
    Error "gains out of range [-60, 60] dB"
  else if weights < 3 || weights > 513 then
    Error "weights out of range [3, 513]"
  else if kind = Region && protocol = None then
    Error "region query requires a protocol"
  else Ok { kind; power_db; gains_db; bound; protocol; weights }

let bound_name = function Bidir.Bound.Inner -> "inner" | Bidir.Bound.Outer -> "outer"

let bound_of_string = function
  | "inner" -> Some Bidir.Bound.Inner
  | "outer" -> Some Bidir.Bound.Outer
  | _ -> None

let key q =
  let g_ab, g_ar, g_br = q.gains_db in
  Printf.sprintf "%s|%s|%s|%d|%.17g|%.17g|%.17g|%.17g" (kind_name q.kind)
    (bound_name q.bound)
    (match q.protocol with Some p -> Bidir.Protocol.name p | None -> "-")
    q.weights q.power_db g_ab g_ar g_br

(* ------------------------------------------------------------------ *)
(* JSON / parameter parsing                                            *)
(* ------------------------------------------------------------------ *)

let to_json q =
  let g_ab, g_ar, g_br = q.gains_db in
  Json.Obj
    [ ("kind", Json.String (kind_name q.kind));
      ("power_db", Json.Float q.power_db);
      ("g_ab", Json.Float g_ab);
      ("g_ar", Json.Float g_ar);
      ("g_br", Json.Float g_br);
      ("bound", Json.String (bound_name q.bound));
      ( "protocol",
        match q.protocol with
        | Some p -> Json.String (Bidir.Protocol.name p)
        | None -> Json.Null );
      ("weights", Json.Int q.weights);
    ]

(* Both front doors (URL parameters and JSON bodies) funnel through the
   same field-by-field builder so they accept exactly the same
   queries. [get] returns the raw string for a field, or None. *)
let build ~kind ~(get : string -> (string, string) result option) =
  let ( let* ) = Result.bind in
  let float_field name dflt =
    match get name with
    | None -> Ok dflt
    | Some (Error e) -> Error e
    | Some (Ok s) -> (
      match float_of_string_opt s with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "%s: not a number: %s" name s))
  in
  let int_field name dflt =
    match get name with
    | None -> Ok dflt
    | Some (Error e) -> Error e
    | Some (Ok s) -> (
      match int_of_string_opt s with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "%s: not an integer: %s" name s))
  in
  let* kind =
    match kind_of_string kind with
    | Some k -> Ok k
    | None -> Error (Printf.sprintf "unknown query kind: %s" kind)
  in
  let* power_db = float_field "power_db" 10. in
  let* g_ab = float_field "g_ab" 0. in
  let* g_ar = float_field "g_ar" 5. in
  let* g_br = float_field "g_br" 7. in
  let* bound =
    match get "bound" with
    | None -> Ok Bidir.Bound.Inner
    | Some (Error e) -> Error e
    | Some (Ok s) -> (
      match bound_of_string s with
      | Some b -> Ok b
      | None -> Error (Printf.sprintf "bound: expected inner|outer, got %s" s))
  in
  let* protocol =
    match get "protocol" with
    | None -> Ok None
    | Some (Error e) -> Error e
    | Some (Ok s) -> (
      match Bidir.Protocol.of_string s with
      | Some p -> Ok (Some p)
      | None -> Error (Printf.sprintf "unknown protocol: %s" s))
  in
  let* weights = int_field "weights" 33 in
  make ~kind ~power_db ~gains_db:(g_ab, g_ar, g_br) ~bound ?protocol ~weights
    ()

let known_fields =
  [ "kind"; "power_db"; "g_ab"; "g_ar"; "g_br"; "bound"; "protocol"; "weights" ]

let of_params ~kind params =
  match
    List.find_opt (fun (k, _) -> not (List.mem k known_fields)) params
  with
  | Some (k, _) -> Error (Printf.sprintf "unknown parameter: %s" k)
  | None ->
    build ~kind ~get:(fun name ->
        Option.map (fun v -> Ok v) (List.assoc_opt name params))

let of_json j =
  match j with
  | Json.Obj fields -> (
    match
      List.find_opt (fun (k, _) -> not (List.mem k known_fields)) fields
    with
    | Some (k, _) -> Error (Printf.sprintf "unknown field: %s" k)
    | None -> (
      let get name =
        match List.assoc_opt name fields with
        | None | Some Json.Null -> None
        | Some (Json.String s) -> Some (Ok s)
        | Some (Json.Int i) -> Some (Ok (string_of_int i))
        | Some (Json.Float f) -> Some (Ok (Printf.sprintf "%.17g" f))
        | Some _ -> Some (Error (Printf.sprintf "%s: unsupported type" name))
      in
      match get "kind" with
      | Some (Ok kind) -> build ~kind ~get
      | Some (Error e) -> Error e
      | None -> Error "missing field: kind"))
  | _ -> Error "query body must be a JSON object"

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(* Quantize to 1e-6 before rendering: coarse enough to absorb the
   ulp-level path dependence of warm LP solves (vertex dedup tolerance
   is 1e-7), fine enough for any rate in bits/use. [+. 0.] folds -0.
   into 0. so the sign never leaks into the rendering. *)
let q6 x = Json.Float ((Float.round (x *. 1e6) /. 1e6) +. 0.)

let scenario q =
  let g_ab, g_ar, g_br = q.gains_db in
  Bidir.Gaussian.scenario ~power_db:q.power_db
    ~gains:(Channel.Gains.of_db ~g_ab ~g_ar ~g_br)

let result_json (r : Bidir.Optimize.sum_rate_result) =
  Json.Obj
    [ ("protocol", Json.String (Bidir.Protocol.name r.protocol));
      ("bound", Json.String (bound_name r.bound_kind));
      ("sum_rate", q6 r.sum_rate);
      ("ra", q6 r.ra);
      ("rb", q6 r.rb);
      ("deltas", Json.List (Array.to_list (Array.map q6 r.deltas)));
    ]

let eval q =
  let scen = scenario q in
  match q.kind with
  | Sumrate -> (
    match q.protocol with
    | Some p -> result_json (Bidir.Optimize.sum_rate p q.bound scen)
    | None ->
      Json.Obj
        [ ( "results",
            Json.List
              (List.map result_json (Bidir.Optimize.all_sum_rates q.bound scen))
          );
        ])
  | Select ->
    let all = Bidir.Optimize.all_sum_rates q.bound scen in
    (* [Optimize.best_protocol]'s tie rule — earlier in [Protocol.all]
       wins unless strictly beaten — applied to the QUANTIZED sum
       rates: two protocols whose optima differ only by warm-solve ulp
       noise must select the same winner on every run, or the response
       bytes would depend on the daemon's history *)
    let quant x = Float.round (x *. 1e6) /. 1e6 in
    let best =
      List.fold_left
        (fun acc (r : Bidir.Optimize.sum_rate_result) ->
          if quant r.sum_rate > quant acc.Bidir.Optimize.sum_rate then r
          else acc)
        (List.hd all) (List.tl all)
    in
    Json.Obj
      [ ("best", result_json best);
        ( "sum_rates",
          Json.Obj
            (List.map
               (fun (r : Bidir.Optimize.sum_rate_result) ->
                 (Bidir.Protocol.name r.protocol, q6 r.sum_rate))
               all) );
      ]
  | Region ->
    let p = Option.get q.protocol in
    let bound = Bidir.Gaussian.bounds p q.bound scen in
    let vertices = Bidir.Rate_region.boundary bound in
    let area = Bidir.Rate_region.area bound in
    Json.Obj
      [ ("protocol", Json.String (Bidir.Protocol.name p));
        ("bound", Json.String (bound_name q.bound));
        ("weights", Json.Int q.weights);
        ("area", q6 area);
        ( "vertices",
          Json.List
            (List.map
               (fun (v : Numerics.Vec2.t) -> Json.List [ q6 v.x; q6 v.y ])
               vertices) );
      ]
