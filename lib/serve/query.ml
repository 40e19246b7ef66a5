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

let validate ~kind ~power_db ~gains_db ~bound ~protocol ~weights =
  let g_ab, g_ar, g_br = gains_db in
  if not (db_ok power_db) then Error "power_db out of range [-60, 60] dB"
  else if not (db_ok g_ab && db_ok g_ar && db_ok g_br) then
    Error "gains out of range [-60, 60] dB"
  else if weights < 3 || weights > 513 then
    Error "weights out of range [3, 513]"
  else if kind = Region && protocol = None then
    Error "region query requires a protocol"
  else Ok { kind; power_db; gains_db; bound; protocol; weights }

let make ~kind ?(power_db = 10.) ?(gains_db = (0., 5., 7.))
    ?(bound = Bidir.Bound.Inner) ?protocol ?(weights = 33) () =
  validate ~kind ~power_db ~gains_db ~bound ~protocol ~weights

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

(* The fields of [key] as five 8-byte words: the tags and weights in
   one, then the IEEE bits of each float. Finite doubles print the same
   %.17g text exactly when their bits are equal (0. and -0. differ in
   both), so the two keys split queries alike. *)
let cache_key q =
  let g_ab, g_ar, g_br = q.gains_db in
  let kind = match q.kind with Sumrate -> 0 | Select -> 1 | Region -> 2 in
  let bound = match q.bound with Bidir.Bound.Inner -> 0 | Bidir.Bound.Outer -> 1 in
  let protocol =
    match q.protocol with
    | None -> 0
    | Some Bidir.Protocol.Dt -> 1
    | Some Bidir.Protocol.Naive -> 2
    | Some Bidir.Protocol.Mabc -> 3
    | Some Bidir.Protocol.Tdbc -> 4
    | Some Bidir.Protocol.Hbc -> 5
  in
  let k = Bytes.create 40 in
  Bytes.set_int64_le k 0
    (Int64.of_int (kind lor (bound lsl 2) lor (protocol lsl 3) lor (q.weights lsl 6)));
  Bytes.set_int64_le k 8 (Int64.bits_of_float q.power_db);
  Bytes.set_int64_le k 16 (Int64.bits_of_float g_ab);
  Bytes.set_int64_le k 24 (Int64.bits_of_float g_ar);
  Bytes.set_int64_le k 32 (Int64.bits_of_float g_br);
  Bytes.unsafe_to_string k

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

(* Both front doors (URL parameters and JSON bodies) read their fields
   in one pass into these slots, typed as the JSON value they arrived
   as (a URL parameter is a [String]; [Null] is an absent field), and
   [build] converts them in a fixed order. The first occurrence of a
   field counts. A JSON number is converted directly; only an error
   message prints a value, in the form a text round trip through
   "%.17g" would have shown it. *)
type slots = {
  mutable seen : int;  (* bit [i] set: slot [i] was filled *)
  values : Json.t array;
}

exception Reject of string

let field_index = function
  | "kind" -> 0
  | "power_db" -> 1
  | "g_ab" -> 2
  | "g_ar" -> 3
  | "g_br" -> 4
  | "bound" -> 5
  | "protocol" -> 6
  | "weights" -> 7
  | _ -> -1

let field_name = function
  | 0 -> "kind"
  | 1 -> "power_db"
  | 2 -> "g_ab"
  | 3 -> "g_ar"
  | 4 -> "g_br"
  | 5 -> "bound"
  | 6 -> "protocol"
  | _ -> "weights"

let slots () = { seen = 0; values = Array.make 8 Json.Null }

(* [false] for an unknown name *)
let fill sl name v =
  let i = field_index name in
  i >= 0
  && begin
    if sl.seen land (1 lsl i) = 0 then begin
      sl.seen <- sl.seen lor (1 lsl i);
      sl.values.(i) <- v
    end;
    true
  end

let text_of name = function
  | Json.String s -> s
  | Json.Int i -> string_of_int i
  | Json.Float f -> Printf.sprintf "%.17g" f
  | _ -> raise (Reject (name ^ ": unsupported type"))

let float_slot sl i dflt =
  match sl.values.(i) with
  | Json.Null -> dflt
  | Json.Float f -> f
  | Json.Int n -> float_of_int n
  | Json.String s -> (
    match float_of_string_opt s with
    | Some f -> f
    | None ->
      raise (Reject (Printf.sprintf "%s: not a number: %s" (field_name i) s)))
  | _ -> raise (Reject (field_name i ^ ": unsupported type"))

let int_slot sl i dflt =
  match sl.values.(i) with
  | Json.Null -> dflt
  | Json.Int n -> n
  | Json.Float f when Float.is_integer f && Float.abs f < 1e15 ->
    int_of_float f
  | v -> (
    let s = text_of (field_name i) v in
    match int_of_string_opt s with
    | Some n -> n
    | None ->
      raise (Reject (Printf.sprintf "%s: not an integer: %s" (field_name i) s)))

(* [None] for an absent field, else the field's text read by [conv],
   rejected with [msg text] when [conv] has no answer *)
let text_slot sl i conv msg =
  match sl.values.(i) with
  | Json.Null -> None
  | v -> (
    let s = text_of (field_name i) v in
    match conv s with Some x -> Some x | None -> raise (Reject (msg s)))

let unknown_kind s = Printf.sprintf "unknown query kind: %s" s
let bad_bound s = Printf.sprintf "bound: expected inner|outer, got %s" s
let unknown_protocol s = Printf.sprintf "unknown protocol: %s" s

let build sl =
  let kind =
    match text_slot sl 0 kind_of_string unknown_kind with
    | Some k -> k
    | None -> raise (Reject "missing field: kind")
  in
  let power_db = float_slot sl 1 10. in
  let g_ab = float_slot sl 2 0. in
  let g_ar = float_slot sl 3 5. in
  let g_br = float_slot sl 4 7. in
  let bound =
    Option.value ~default:Bidir.Bound.Inner
      (text_slot sl 5 bound_of_string bad_bound)
  in
  let protocol = text_slot sl 6 Bidir.Protocol.of_string unknown_protocol in
  let weights = int_slot sl 7 33 in
  validate ~kind ~power_db ~gains_db:(g_ab, g_ar, g_br) ~bound ~protocol
    ~weights

let rec fill_params sl = function
  | [] -> None
  | (k, v) :: rest ->
    if fill sl k (Json.String v) then fill_params sl rest else Some k

let of_params ~kind params =
  let sl = slots () in
  match fill_params sl params with
  | Some k -> Error (Printf.sprintf "unknown parameter: %s" k)
  | None -> (
    sl.values.(0) <- Json.String kind;
    match build sl with q -> q | exception Reject e -> Error e)

let rec fill_fields sl = function
  | [] -> None
  | (k, v) :: rest -> if fill sl k v then fill_fields sl rest else Some k

let of_json j =
  match j with
  | Json.Obj fields -> (
    let sl = slots () in
    match fill_fields sl fields with
    | Some k -> Error (Printf.sprintf "unknown field: %s" k)
    | None -> (match build sl with q -> q | exception Reject e -> Error e))
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
