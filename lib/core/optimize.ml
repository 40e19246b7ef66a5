type sum_rate_result = {
  protocol : Protocol.t;
  bound_kind : Bound.kind;
  sum_rate : float;
  ra : float;
  rb : float;
  deltas : float array;
}

(* One memo table (see [Engine.Memo]) over the compiled templates: the
   key is the (protocol, kind) tag plus the bits of the mutual
   informations the system reads ([Rate_region.template_key]), the value
   [ra; rb; d_1; ...; d_L] ([Rate_region.encode_optimum]). Scenarios
   that give one system the same coefficients share an entry — DT reads
   only C(P G_ab), so a relay-position sweep at one power is a single
   LP. *)
let sum_rate_cache = Engine.Memo.create ~name:"optimize.sum_rate" ()

let decode_result protocol kind b off len =
  let ra = Rate_region.optimum_word b off 0
  and rb = Rate_region.optimum_word b off 1 in
  { protocol;
    bound_kind = kind;
    sum_rate = ra +. rb;
    ra;
    rb;
    deltas = Rate_region.optimum_deltas b off len;
  }

let sum_rate_of_mi protocol kind m =
  let t = Rate_region.sum_rate_template protocol kind in
  Engine.Memo.find_or_add sum_rate_cache (Rate_region.template_key t m)
    ~decode:(decode_result protocol kind) (fun () ->
      (* a cold pass runs this once per LP: build the span's args only
         while tracing is on *)
      let args =
        if Telemetry.Span.enabled () then
          [ ("protocol", Telemetry.Json.String (Protocol.name protocol));
            ("bound", Telemetry.Json.String (Bound.kind_name kind));
          ]
        else []
      in
      Telemetry.Span.with_span ~cat:"optimize" "optimize.sum_rate" ~args
      @@ fun () ->
      Rate_region.encode_optimum (Rate_region.solve_template_into t m))

(* [Gaussian.mi] rejects an invalid scenario before the memo is
   probed, so nothing is stored for it. *)
let sum_rate protocol kind scenario =
  sum_rate_of_mi protocol kind (Gaussian.mi scenario)

(* One [Gaussian.mi] for all the protocols. *)
let all_sum_rates kind scenario =
  let m = Gaussian.mi scenario in
  Engine.Pool.map (fun p -> sum_rate_of_mi p kind m) Protocol.all

let best_protocol kind scenario =
  match all_sum_rates kind scenario with
  | [] -> assert false (* Protocol.all is non-empty *)
  | first :: rest ->
    List.fold_left
      (fun best r -> if r.sum_rate > best.sum_rate +. 1e-12 then r else best)
      first rest

let crossover_powers_db ?(lo_db = -10.) ?(hi_db = 25.) ?(samples = 141)
    (p1, p2) ~gains kind =
  let diff power_db =
    let s = Gaussian.scenario ~power_db ~gains in
    (sum_rate p1 kind s).sum_rate -. (sum_rate p2 kind s).sum_rate
  in
  Numerics.Root.crossings ~f:diff ~lo:lo_db ~hi:hi_db ~samples

let hbc_strict_advantage scenario =
  Telemetry.Span.with_span ~cat:"optimize" "optimize.hbc_advantage"
  @@ fun () ->
  let hbc = Gaussian.bounds Protocol.Hbc Bound.Inner scenario in
  let mabc_outer = Gaussian.bounds Protocol.Mabc Bound.Outer scenario in
  let tdbc_outer = Gaussian.bounds Protocol.Tdbc Bound.Outer scenario in
  let candidates = Rate_region.boundary hbc in
  (* build each outer polygon once, not once per candidate *)
  let mabc_poly = Rate_region.polygon mabc_outer in
  let tdbc_poly = Rate_region.polygon tdbc_outer in
  let distance bound poly ~ra ~rb =
    if Rate_region.achievable bound ~ra ~rb then 0.
    else
      Numerics.Polygon.distance_to_boundary poly (Numerics.Vec2.make ra rb)
  in
  let outside =
    Engine.Pool.map
      (fun (p : Numerics.Vec2.t) ->
        let ra = p.Numerics.Vec2.x and rb = p.Numerics.Vec2.y in
        let d_mabc = distance mabc_outer mabc_poly ~ra ~rb in
        let d_tdbc = distance tdbc_outer tdbc_poly ~ra ~rb in
        if d_mabc > 1e-9 && d_tdbc > 1e-9 then
          Some (ra, rb, Float.min d_mabc d_tdbc)
        else None)
      candidates
    |> List.filter_map Fun.id
  in
  match outside with
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun ((_, _, m_best) as best) ((_, _, m) as cand) ->
           if m > m_best then cand else best)
         first rest)
