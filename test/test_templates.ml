(* Compiled sum-rate templates ([Rate_region.sum_rate_template]): the
   cold path of [Optimize.sum_rate]. Checked three ways — against an
   exhaustive vertex enumeration that shares no code with [Kernel] or
   [Solver], against the symbolic bounds they were compiled from, and
   for their allocation footprint on a loaded slot. The same oracle
   checks the weighted LPs of [Rate_region.max_weighted]. *)

let systems =
  List.concat_map
    (fun p -> [ (p, Bidir.Bound.Inner); (p, Bidir.Bound.Outer) ])
    Bidir.Protocol.all

let system_name (p, kind) =
  Bidir.Protocol.name p ^ "/" ^ Bidir.Bound.kind_name kind

(* ------------------------------------------------------------------ *)
(* Oracle: exhaustive vertex enumeration                               *)
(* ------------------------------------------------------------------ *)

(* The sum-rate LP over x = [ra; rb; d_1 .. d_L] has n = 2 + L <= 6
   variables: one row per bound term (ca ra + cb rb - sum c_l d_l <= 0),
   the duration simplex (sum d_l = 1) and x >= 0. Its optimum is the
   best of the feasible vertices [Lp_oracle] enumerates. *)
let vertices (b : Bidir.Bound.t) =
  let n = 2 + b.Bidir.Bound.num_phases in
  let simplex =
    Linprog.Simplex.constr
      (Array.init n (fun j -> if j >= 2 then 1. else 0.))
      Linprog.Simplex.Eq 1.
  in
  let term (t : Bidir.Bound.term) =
    Linprog.Simplex.constr
      (Array.init n (fun j ->
           if j = 0 then t.Bidir.Bound.ca
           else if j = 1 then t.Bidir.Bound.cb
           else -.t.Bidir.Bound.per_phase.(j - 2)))
      Linprog.Simplex.Le 0.
  in
  Lp_oracle.vertices ~nvars:n (simplex :: List.map term b.Bidir.Bound.terms)

(* The oracle's optimum of [wa ra + wb rb] (the sum rate by default)
   and, among the vertices attaining it, the largest ra (for the sum
   rate, the unique point the lexicographic objective picks). *)
let oracle ?(wa = 1.) ?(wb = 1.) b =
  let vs = vertices b in
  let value x = (wa *. x.(0)) +. (wb *. x.(1)) in
  let best = List.fold_left (fun m x -> Float.max m (value x)) 0. vs in
  let ra_most =
    List.fold_left
      (fun m x -> if value x >= best -. 1e-9 then Float.max m x.(0) else m)
      neg_infinity vs
  in
  (best, ra_most)

(* The oracle's vertices at the lexicographic optimum [oracle] found:
   more than one distinct point when the optimum is not unique. *)
let lex_optima b ~best ~ra_most =
  List.filter
    (fun x -> x.(0) +. x.(1) >= best -. 1e-9 && x.(0) >= ra_most -. 1e-7)
    (vertices b)

(* Random Gaussian scenarios over the paper's sweep range, a third of
   them with a dead direct link (g_ab = 0) and a third with a
   symmetric relay (g_ar = g_br, where the sum-rate face is an edge). *)
let scenario_gen =
  QCheck.(
    map
      (fun (power_db, (d_ab, d_ar, d_br), mode) ->
        let lin = Numerics.Float_utils.db_to_lin in
        let g_ab = if mode = 1 then 0. else lin d_ab in
        let g_br = if mode = 2 then lin d_ar else lin d_br in
        Bidir.Gaussian.scenario ~power_db
          ~gains:(Channel.Gains.make ~g_ab ~g_ar:(lin d_ar) ~g_br))
      (triple (float_range (-10.) 25.)
         (triple (float_range (-10.) 10.) (float_range (-5.) 12.)
            (float_range (-5.) 12.))
         (int_range 0 2)))

let prop_template_matches_oracle =
  QCheck.Test.make ~count:300
    ~name:"template sum rate = vertex-enumeration oracle (all 10 systems)"
    scenario_gen (fun s ->
      let m = Bidir.Gaussian.mi s in
      List.for_all
        (fun ((p, kind) as sys) ->
          let b = Bidir.Templates.bounds p kind m in
          let v =
            Bidir.Rate_region.solve_template
              (Bidir.Rate_region.sum_rate_template p kind)
              m
          in
          let ra = v.(0) and rb = v.(1) in
          let deltas = Array.sub v 2 (Array.length v - 2) in
          let best, ra_most = oracle b in
          let ok =
            abs_float (ra +. rb -. best) <= 1e-9
            && Bidir.Bound.satisfied b ~deltas ~ra ~rb
            && abs_float (ra -. ra_most) <= 1e-7
          in
          if not ok then
            QCheck.Test.fail_reportf
              "%s: template (ra %.12g, rb %.12g) vs oracle sum %.12g, ra %.12g"
              (system_name sys) ra rb best ra_most;
          ok)
        systems)

(* Theorem 2's MABC sum rate in closed form, with no LP: with phase 1
   of length t, the maximum over t in [0, 1] of
     min (t c_mac, min (t c_ar, (1 - t) c_br) + min (t c_br, (1 - t) c_ar)).
   The function is concave and piecewise linear, so the maximum is at
   an end point, a kink of the sum (t c_ar = (1 - t) c_br, or
   t c_br = (1 - t) c_ar), or where t c_mac crosses one of the sum's
   linear pieces (c_ar, c_br, or (1 - t) (c_ar + c_br)). *)
let mabc_closed_form s =
  let l = Bidir.Gaussian.link_rates s in
  let c_mac = l.Bidir.Gaussian.c_mac
  and c_ar = l.Bidir.Gaussian.c_ar
  and c_br = l.Bidir.Gaussian.c_br in
  let f t =
    Float.min (t *. c_mac)
      (Float.min (t *. c_ar) ((1. -. t) *. c_br)
      +. Float.min (t *. c_br) ((1. -. t) *. c_ar))
  in
  let ratio a b = if b > 0. then [ a /. b ] else [] in
  [ [ 0.; 1. ];
    ratio c_br (c_ar +. c_br);
    ratio c_ar (c_ar +. c_br);
    ratio c_ar c_mac;
    ratio c_br c_mac;
    ratio (c_ar +. c_br) (c_mac +. c_ar +. c_br);
  ]
  |> List.concat
  |> List.filter (fun t -> t >= 0. && t <= 1.)
  |> List.fold_left (fun m t -> Float.max m (f t)) 0.

let prop_mabc_matches_theorem2 =
  QCheck.Test.make ~count:300 ~name:"MABC sum rate = Theorem 2 closed form"
    scenario_gen (fun s ->
      let lp =
        (Bidir.Optimize.sum_rate Bidir.Protocol.Mabc Bidir.Bound.Inner s)
          .Bidir.Optimize.sum_rate
      and exact = mabc_closed_form s in
      abs_float (lp -. exact) <= 1e-9 *. abs_float exact
      || QCheck.Test.fail_reportf "LP %.17g vs closed form %.17g" lp exact)

(* Scenarios at the edges of the model: besides generic gains, a dead
   direct link (g_ab = 0), a symmetric relay (g_ar = g_br), both at
   once, zero power (every link has zero capacity) and a dead relay
   link (g_ar = 0). *)
let edge_scenario_gen =
  QCheck.(
    map
      (fun (power_db, (d_ab, d_ar, d_br), mode) ->
        let lin = Numerics.Float_utils.db_to_lin in
        let g_ab = if mode = 1 || mode = 3 then 0. else lin d_ab in
        let g_ar = if mode = 5 then 0. else lin d_ar in
        let g_br = if mode = 2 || mode = 3 then g_ar else lin d_br in
        let power = if mode = 4 then 0. else lin power_db in
        Bidir.Gaussian.scenario_lin ~power
          ~gains:(Channel.Gains.make ~g_ab ~g_ar ~g_br))
      (triple (float_range (-10.) 25.)
         (triple (float_range (-10.) 10.) (float_range (-5.) 12.)
            (float_range (-5.) 12.))
         (int_range 0 5)))

(* A template solve depends on the solver's history only through
   round-off: after a random history of earlier solves (random
   scenarios through random systems, so every slot carries some basis
   in, factored or not), each system's answer agrees with a solve on a
   fresh slot within 1e-9 per coordinate and 1e-12 relative in the sum
   rate, and with the vertex-enumeration oracle. Not bit for bit: a
   carried basis is refactorised in another order than a fresh phase 1
   reaches it, and the two differ by up to about 1e-13.
   The durations are compared only where the oracle finds them unique.
   The lexicographic tilt fixes the rates, not the durations: with zero
   power, a dead relay link or a direct link stronger than a symmetric
   relay, the ra-most optimum is an edge or face in duration space
   (TDBC's outer bound at P = 2.17, gains (5.29, 0.667, 0.667) split
   its time (0.354, 0.646, 0) after a history and (1, 0, 0) fresh, at
   equal rates). There the durations are checked against the bounds
   only. *)
let prop_template_history_independent =
  QCheck.Test.make ~count:100
    ~name:"template solve after a random history = fresh slot = oracle"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 12)
           (pair edge_scenario_gen (int_range 0 (List.length systems - 1))))
        edge_scenario_gen)
    (fun (history, s) ->
      let templates =
        Array.of_list
          (List.map (fun (p, kind) -> Bidir.Rate_region.sum_rate_template p kind)
             systems)
      in
      Engine.Memo.clear_all ();
      List.iter
        (fun (h, k) ->
          ignore
            (Bidir.Rate_region.solve_template templates.(k) (Bidir.Gaussian.mi h)
              : float array))
        history;
      let m = Bidir.Gaussian.mi s in
      let after = Array.map (fun t -> Bidir.Rate_region.solve_template t m) templates in
      List.for_all2
        (fun ((p, kind) as sys) (t, v) ->
          Engine.Memo.clear_all ();
          let fresh = Bidir.Rate_region.solve_template t m in
          let sum x = x.(0) +. x.(1) in
          let g = s.Bidir.Gaussian.gains in
          let b = Bidir.Templates.bounds p kind m in
          let best, ra_most = oracle b in
          let unique =
            match lex_optima b ~best ~ra_most with
            | [] -> false
            | x :: rest ->
              List.for_all
                (fun y -> Array.for_all2 (fun a b -> abs_float (a -. b) <= 1e-9) x y)
                rest
          in
          let coords_ok =
            Array.for_all2 (fun a b -> abs_float (a -. b) <= 1e-9)
              (if unique then v else Array.sub v 0 2)
              (if unique then fresh else Array.sub fresh 0 2)
          and sum_ok =
            abs_float (sum v -. sum fresh) <= 1e-12 *. abs_float (sum fresh)
          in
          let deltas = Array.sub v 2 (Array.length v - 2) in
          let oracle_ok =
            abs_float (sum v -. best) <= 1e-9
            && Bidir.Bound.satisfied b ~deltas ~ra:v.(0) ~rb:v.(1)
            && abs_float (v.(0) -. ra_most) <= 1e-7
          in
          if not (coords_ok && sum_ok && oracle_ok) then
            QCheck.Test.fail_reportf
              "%s at P %g, gains (%g, %g, %g): after history [%s] vs fresh \
               [%s]; oracle sum %.17g, ra %.17g"
              (system_name sys) s.Bidir.Gaussian.power g.Channel.Gains.g_ab
              g.Channel.Gains.g_ar g.Channel.Gains.g_br
              (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%.17g") v)))
              (String.concat "; "
                 (Array.to_list (Array.map (Printf.sprintf "%.17g") fresh)))
              best ra_most;
          true)
        systems
        (List.combine (Array.to_list templates) (Array.to_list after)))

(* [Rate_region.max_weighted] on the symbolic bounds, with the memo off
   so every query reaches the warm-started solver: the axis corners
   (1, 0) and (0, 1) and a random convex pair per scenario. *)
let prop_max_weighted_matches_oracle =
  QCheck.Test.make ~count:300
    ~name:"max_weighted = vertex-enumeration oracle (all 10 systems)"
    QCheck.(pair scenario_gen (float_range 0. 1.))
    (fun (s, w) ->
      Engine.Memo.with_enabled false @@ fun () ->
      List.for_all
        (fun ((p, kind) as sys) ->
          let b = Bidir.Gaussian.bounds p kind s in
          List.for_all
            (fun (wa, wb) ->
              let r = Bidir.Rate_region.max_weighted b ~wa ~wb in
              let ra = r.Bidir.Rate_region.ra and rb = r.Bidir.Rate_region.rb in
              let best, _ = oracle ~wa ~wb b in
              let got = (wa *. ra) +. (wb *. rb) in
              let ok =
                abs_float (got -. best) <= 1e-9
                && Bidir.Bound.satisfied b ~deltas:r.Bidir.Rate_region.deltas
                     ~ra ~rb
              in
              if not ok then
                QCheck.Test.fail_reportf
                  "%s at (%g, %g): (ra %.12g, rb %.12g) gives %.12g, oracle %.12g"
                  (system_name sys) wa wb ra rb got best;
              ok)
            [ (1., 0.); (0., 1.); (w, 1. -. w) ])
        systems)

(* ------------------------------------------------------------------ *)
(* The coefficient key reads what the bound reads                      *)
(* ------------------------------------------------------------------ *)

(* A template's memo key holds only the fields it reads, so it is sound
   exactly when those are the fields the symbolic bound depends on:
   perturbing any other field must leave the bound unchanged, and
   perturbing one of them must change it. *)
let prop_template_reads_bound_fields =
  QCheck.Test.make ~count:50 ~name:"template fields = fields the bound reads"
    QCheck.(array_of_size (Gen.return 11) (float_range 0.1 5.))
    (fun base ->
      let mi_of vals = Bidir.Templates.of_fields (Array.get vals) in
      List.for_all
        (fun ((p, kind) as sys) ->
          let b0 = Bidir.Templates.bounds p kind (mi_of base) in
          let read =
            List.filter
              (fun k ->
                let vals = Array.copy base in
                vals.(k) <- vals.(k) +. 1.;
                Bidir.Templates.bounds p kind (mi_of vals) <> b0)
              (List.init Bidir.Templates.num_fields Fun.id)
          in
          let compiled =
            Array.to_list
              (Bidir.Rate_region.template_fields
                 (Bidir.Rate_region.sum_rate_template p kind))
          in
          if read <> compiled then
            QCheck.Test.fail_reportf "%s: bound reads [%s], template [%s]"
              (system_name sys)
              (String.concat ";" (List.map string_of_int read))
              (String.concat ";" (List.map string_of_int compiled));
          true)
        systems)

(* ------------------------------------------------------------------ *)
(* Zero allocation on a loaded slot                                    *)
(* ------------------------------------------------------------------ *)

(* 1 000 distinct Rayleigh draws per system, solved straight from the
   templates (no memo in between): every one patches the image, reloads
   the slot — carrying the basis, or re-running phase 1 when the carried
   basis is infeasible — and reoptimises, and none of it may allocate a
   single word. The first pass loads the slots and faults every path
   in; the second is measured. *)
let test_cold_solve_zero_alloc () =
  let fading =
    Channel.Fading.create ~rng_seed:41 ~mean:Channel.Gains.paper_fig4 ()
  in
  let mis =
    Array.init 1000 (fun i ->
        let power = Numerics.Float_utils.db_to_lin (float_of_int (i mod 3) *. 5.) in
        Bidir.Gaussian.mi
          (Bidir.Gaussian.scenario_lin ~power ~gains:(Channel.Fading.draw fading)))
  in
  let templates =
    Array.of_list
      (List.map (fun (p, kind) -> Bidir.Rate_region.sum_rate_template p kind) systems)
  in
  (* loops, not [Array.iter]: a closure here would be the only heap
     block of the sweep *)
  let sweep () =
    for k = 0 to Array.length templates - 1 do
      for i = 0 to Array.length mis - 1 do
        ignore
          (Bidir.Rate_region.solve_template_into templates.(k) mis.(i)
            : float array)
      done
    done
  in
  sweep ();
  let solves = Telemetry.Metrics.counter "linprog.solves"
  and skipped = Telemetry.Metrics.counter "linprog.phase1_skipped" in
  let solves0 = Telemetry.Metrics.value solves
  and skipped0 = Telemetry.Metrics.value skipped in
  (* net of what the measurement itself costs (boxing the first
     reading across the call) *)
  let measure f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let overhead = measure ignore in
  let words = measure sweep -. overhead in
  let n_solves = Telemetry.Metrics.value solves - solves0 in
  let carried = Telemetry.Metrics.value skipped - skipped0 in
  Alcotest.(check int) "one solve per draw and system" (1000 * List.length systems)
    n_solves;
  Alcotest.(check bool)
    (Printf.sprintf "both carried (%d) and phase-1 (%d) loads ran" carried
       (n_solves - carried))
    true
    (carried > 0 && n_solves - carried > 0);
  Alcotest.(check (float 0.)) "minor words across the sweep" 0. words

(* Rates and phase durations are non-negative variables. Round-off in
   the eliminations can leave a basic one a few ulps below zero (HBC's
   last duration came out -6.8e-17 at the Fig. 4 gains, 10 dB, on a
   fresh slot, and the packet simulator refused the negative phase);
   the solver reports such values as 0, never negative, never -0. *)
let test_solutions_non_negative () =
  let fading =
    Channel.Fading.create ~rng_seed:5 ~mean:Channel.Gains.paper_fig4 ()
  in
  let scenarios =
    Bidir.Gaussian.scenario ~power_db:10. ~gains:Channel.Gains.paper_fig4
    :: List.init 300 (fun i ->
           Bidir.Gaussian.scenario_lin
             ~power:(Numerics.Float_utils.db_to_lin (float_of_int (i mod 7) *. 5.))
             ~gains:(Channel.Fading.draw fading))
  in
  List.iter
    (fun (p, kind) ->
      let t = Bidir.Rate_region.sum_rate_template p kind in
      List.iter
        (fun s ->
          let x = Bidir.Rate_region.solve_template t (Bidir.Gaussian.mi s) in
          Array.iteri
            (fun j v ->
              if not (v >= 0. && not (Float.sign_bit v)) then
                Alcotest.failf "%s at P = %g: x.(%d) = %h" (system_name (p, kind))
                  s.Bidir.Gaussian.power j v)
            x)
        scenarios)
    systems

(* ------------------------------------------------------------------ *)
(* Invalid powers                                                      *)
(* ------------------------------------------------------------------ *)

let test_invalid_power_rejected () =
  let gains = Channel.Gains.paper_fig4 in
  Alcotest.check_raises "scenario_lin rejects NaN"
    (Invalid_argument "Gaussian.scenario_lin: power must be non-negative")
    (fun () -> ignore (Bidir.Gaussian.scenario_lin ~power:nan ~gains));
  let hits = Telemetry.Metrics.counter "memo.optimize.sum_rate.hits"
  and misses = Telemetry.Metrics.counter "memo.optimize.sum_rate.misses" in
  let probes () = Telemetry.Metrics.value hits + Telemetry.Metrics.value misses in
  let before = probes () in
  List.iter
    (fun s ->
      List.iter
        (fun (p, kind) ->
          match Bidir.Optimize.sum_rate p kind s with
          | _ ->
            Alcotest.failf "%s: sum_rate accepted power %g" (system_name (p, kind))
              s.Bidir.Gaussian.power
          | exception Invalid_argument _ -> ())
        systems)
    [ { Bidir.Gaussian.power = nan; gains };
      Bidir.Gaussian.scenario_lin ~power:infinity ~gains;
    ];
  List.iter
    (fun s ->
      List.iter
        (fun kind ->
          match Bidir.Optimize.all_sum_rates kind s with
          | _ ->
            Alcotest.failf "all_sum_rates accepted power %g"
              s.Bidir.Gaussian.power
          | exception Invalid_argument _ -> ())
        [ Bidir.Bound.Inner; Bidir.Bound.Outer ])
    [ { Bidir.Gaussian.power = nan; gains };
      { Bidir.Gaussian.power = infinity; gains };
    ];
  (* rejected before the memo is consulted, so nothing is stored *)
  Alcotest.(check int) "memo probes" before (probes ())

(* [all_sum_rates] computes the scenario's mutual informations once for
   every protocol; its answers are still [sum_rate]'s, bit for bit. *)
let prop_all_sum_rates_match_sum_rate =
  QCheck.Test.make ~count:50 ~name:"all_sum_rates = sum_rate per protocol"
    QCheck.(
      quad (float_range (-10.) 25.) (float_range 0.01 4.) (float_range 0.01 4.)
        (float_range 0.01 4.))
    (fun (power_db, g_ab, g_ar, g_br) ->
      let s =
        Bidir.Gaussian.scenario ~power_db
          ~gains:(Channel.Gains.make ~g_ab ~g_ar ~g_br)
      in
      let bits (r : Bidir.Optimize.sum_rate_result) =
        List.map Int64.bits_of_float
          (r.sum_rate :: r.ra :: r.rb :: Array.to_list r.deltas)
      in
      List.for_all
        (fun kind ->
          (* both cold, so neither answer is the other's memo entry *)
          Engine.Memo.clear_all ();
          let all = Bidir.Optimize.all_sum_rates kind s in
          Engine.Memo.clear_all ();
          let each =
            List.map (fun p -> Bidir.Optimize.sum_rate p kind s) Bidir.Protocol.all
          in
          List.map (fun (r : Bidir.Optimize.sum_rate_result) -> r.protocol) all
          = Bidir.Protocol.all
          && List.map bits all = List.map bits each)
        [ Bidir.Bound.Inner; Bidir.Bound.Outer ])

let suites =
  [ ( "templates",
      [ Alcotest.test_case "cold solve on a loaded slot allocates nothing"
          `Quick test_cold_solve_zero_alloc;
        Alcotest.test_case "NaN and infinite power rejected" `Quick
          test_invalid_power_rejected;
        Alcotest.test_case "solutions are non-negative" `Quick
          test_solutions_non_negative;
        QCheck_alcotest.to_alcotest prop_template_matches_oracle;
        QCheck_alcotest.to_alcotest prop_max_weighted_matches_oracle;
        QCheck_alcotest.to_alcotest prop_template_reads_bound_fields;
        QCheck_alcotest.to_alcotest prop_all_sum_rates_match_sum_rate;
        QCheck_alcotest.to_alcotest prop_template_history_independent;
        QCheck_alcotest.to_alcotest prop_mabc_matches_theorem2;
      ] );
  ]
