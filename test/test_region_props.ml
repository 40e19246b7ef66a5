(* Property tests for rate-region geometry on random Gaussian
   scenarios. Gains are drawn in dB and sorted into the paper's
   standing ordering g_ab <= g_ar <= g_br; a quarter of the draws keep
   that, and a quarter each take a degenerate shape instead: a
   symmetric relay (g_ar = g_br), a dead direct link (g_ab = 0) or
   all-equal gains. Powers span the range the figures actually
   sweep. *)

let scenario_gen =
  QCheck.(
    map
      (fun (shape, (power_db, (d1, d2, d3))) ->
        let g1, g2, g3 =
          match List.sort compare [ d1; d2; d3 ] with
          | [ a; b; c ] -> (a, b, c)
          | _ -> assert false
        in
        let lin = Numerics.Float_utils.db_to_lin in
        let gains =
          match shape with
          | 0 -> Channel.Gains.of_db ~g_ab:g1 ~g_ar:g2 ~g_br:g2
          | 1 -> Channel.Gains.make ~g_ab:0. ~g_ar:(lin g2) ~g_br:(lin g3)
          | 2 -> Channel.Gains.of_db ~g_ab:g1 ~g_ar:g1 ~g_br:g1
          | _ -> Channel.Gains.of_db ~g_ab:g1 ~g_ar:g2 ~g_br:g3
        in
        Bidir.Gaussian.scenario ~power_db ~gains)
      (pair (int_bound 3)
         (pair (float_range (-5.) 15.)
            (triple (float_range 0. 10.) (float_range 0. 10.)
               (float_range 0. 10.)))))

let all_systems =
  List.concat_map
    (fun p -> [ (p, Bidir.Bound.Inner); (p, Bidir.Bound.Outer) ])
    Bidir.Protocol.all

let prop_max_sum_rate_achievable =
  QCheck.Test.make ~count:40 ~name:"max_sum_rate point is achievable"
    scenario_gen (fun s ->
      List.for_all
        (fun (p, kind) ->
          let b = Bidir.Gaussian.bounds p kind s in
          let r = Bidir.Rate_region.max_sum_rate b in
          Bidir.Rate_region.achievable b ~ra:r.Bidir.Rate_region.ra
            ~rb:r.Bidir.Rate_region.rb)
        all_systems)

let prop_inner_contained_in_outer =
  QCheck.Test.make ~count:25 ~name:"inner region inside outer region"
    scenario_gen (fun s ->
      List.for_all
        (fun p ->
          let inner = Bidir.Gaussian.bounds p Bidir.Bound.Inner s in
          let outer = Bidir.Gaussian.bounds p Bidir.Bound.Outer s in
          Bidir.Rate_region.contains_region outer inner)
        [ Bidir.Protocol.Mabc; Bidir.Protocol.Tdbc; Bidir.Protocol.Hbc ])

let prop_area_monotone_in_power =
  (* more transmit power can only enlarge an achievable-rate region *)
  QCheck.Test.make ~count:25 ~name:"area monotone in power"
    QCheck.(pair scenario_gen (float_range 0.5 6.))
    (fun (s, extra_db) ->
      let louder =
        let db = 10. *. log10 s.Bidir.Gaussian.power in
        Bidir.Gaussian.scenario ~power_db:(db +. extra_db)
          ~gains:s.Bidir.Gaussian.gains
      in
      List.for_all
        (fun (p, kind) ->
          let a_lo = Bidir.Rate_region.area (Bidir.Gaussian.bounds p kind s) in
          let a_hi =
            Bidir.Rate_region.area (Bidir.Gaussian.bounds p kind louder)
          in
          a_hi >= a_lo -. 1e-9)
        all_systems)

(* HBC with its MAC phase off is TDBC, and with both direct phases off
   it is MABC, so its region holds both and its sum rate is no lower. *)
let prop_hbc_contains_mabc_tdbc =
  QCheck.Test.make ~count:25 ~name:"HBC inner region holds MABC and TDBC"
    scenario_gen (fun s ->
      let inner p = Bidir.Gaussian.bounds p Bidir.Bound.Inner s in
      let hbc = inner Bidir.Protocol.Hbc in
      Bidir.Rate_region.contains_region hbc (inner Bidir.Protocol.Mabc)
      && Bidir.Rate_region.contains_region hbc (inner Bidir.Protocol.Tdbc))

let prop_hbc_sum_rate_dominates =
  QCheck.Test.make ~count:40 ~name:"HBC inner sum rate >= MABC, TDBC"
    scenario_gen (fun s ->
      let sum p =
        (Bidir.Optimize.sum_rate p Bidir.Bound.Inner s).Bidir.Optimize.sum_rate
      in
      sum Bidir.Protocol.Hbc
      >= Float.max (sum Bidir.Protocol.Mabc) (sum Bidir.Protocol.Tdbc) -. 1e-9)

(* The Pareto frontier by brute force, sharing no code with the LP
   solver or the search: every vertex of the region's LP polytope
   ([Lp_oracle.vertices]) projected onto (Ra, Rb), then the upper-right
   hull of those points, from the highest (rightmost of ties) to the
   rightmost (highest of ties), without collinear points. *)
let oracle_frontier b =
  let nvars, constrs = Bidir.Rate_region.lp_constraints b in
  let pts =
    List.map (fun x -> (x.(0), x.(1))) (Lp_oracle.vertices ~nvars constrs)
  in
  let tol = 1e-9 in
  let best key tie =
    let top =
      List.fold_left (fun m p -> Float.max m (key p)) neg_infinity pts
    in
    List.fold_left
      (fun m p -> if key p >= top -. tol && tie p > tie m then p else m)
      (List.find (fun p -> key p >= top -. tol) pts)
      pts
  in
  let ((x0, _) as first) = best snd fst and ((x1, _) as last) = best fst snd in
  if x1 -. x0 <= tol then [ first ]
  else
    let inside =
      List.filter (fun (x, _) -> x > x0 +. tol && x < x1 -. tol) pts
      |> List.sort (fun (xa, ya) (xb, yb) -> compare (xa, -.ya) (xb, -.yb))
    in
    (* [a]-[b]-[c] turns clockwise, as a convex frontier must *)
    let clockwise (ax, ay) (bx, by) (cx, cy) =
      ((bx -. ax) *. (cy -. ay)) -. ((by -. ay) *. (cx -. ax)) < -1e-10
    in
    let rec push p = function
      | b :: a :: rest when not (clockwise a b p) -> push p (a :: rest)
      | hull -> p :: hull
    in
    List.rev
      (List.fold_left (fun hull p -> push p hull) [ first ] (inside @ [ last ]))

let frontier_matches b =
  let got =
    List.map
      (fun (v : Numerics.Vec2.t) -> (v.Numerics.Vec2.x, v.Numerics.Vec2.y))
      (Bidir.Rate_region.boundary b)
  and want = oracle_frontier b in
  List.length got = List.length want
  && List.for_all2
       (fun (x, y) (x', y') ->
         abs_float (x -. x') <= 1e-9 && abs_float (y -. y') <= 1e-9)
       got want

let prop_boundary_is_exact =
  QCheck.Test.make ~count:50 ~name:"boundary = vertex-enumeration frontier"
    scenario_gen (fun s ->
      List.for_all
        (fun (p, kind) -> frontier_matches (Bidir.Gaussian.bounds p kind s))
        all_systems)

(* A vertex of the HBC outer region at P = 20 dB with the Fig. 4 gains
   whose normal cone is narrower than a 65-weight sweep's step. *)
let test_narrow_vertex_found () =
  let s =
    Bidir.Gaussian.scenario ~power_db:20. ~gains:Channel.Gains.paper_fig4
  in
  let b = Bidir.Gaussian.bounds Bidir.Protocol.Hbc Bidir.Bound.Outer s in
  Alcotest.(check bool) "frontier has (6.10506, 1.19307)" true
    (List.exists
       (fun (v : Numerics.Vec2.t) ->
         abs_float (v.Numerics.Vec2.x -. 6.10506) < 5e-6
         && abs_float (v.Numerics.Vec2.y -. 1.19307) < 5e-6)
       (Bidir.Rate_region.boundary b));
  Alcotest.(check bool) "and equals the oracle" true (frontier_matches b)

let suites =
  [ ( "bidir.region_props",
      List.map QCheck_alcotest.to_alcotest
        [ prop_max_sum_rate_achievable;
          prop_inner_contained_in_outer;
          prop_area_monotone_in_power;
          prop_hbc_contains_mabc_tdbc;
          prop_hbc_sum_rate_dominates;
          prop_boundary_is_exact;
        ]
      @ [ Alcotest.test_case "narrow HBC outer vertex found" `Quick
            test_narrow_vertex_found ] );
  ]
