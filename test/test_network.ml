(* Property tests pinning the multi-pair network layer to the
   single-pair theory: the K = 1, R = 1 degeneracy must reproduce
   [Bidir.Optimize] byte-for-byte, every chosen (pair, relay) system
   must keep its inner region inside its outer, and the assignment LP
   must be monotone in the resources (relays, power) and never below
   the greedy feasible point. Plus the determinism contract for the
   network campaign workload (domain counts, batch splits,
   checkpoint/resume) and the property backfill for
   [Bidir.Relay_selection]. *)

module N = Network
module RS = Bidir.Relay_selection
module R = Campaign.Runner
module W = Campaign.Workloads
module J = Telemetry.Json

let gains_gen =
  QCheck.(
    triple (float_range 0. 10.) (float_range 0. 10.) (float_range 0. 10.))

let gains_of (g_ab, g_ar, g_br) = Channel.Gains.of_db ~g_ab ~g_ar ~g_br

(* ------------------------------------------------------------------ *)
(* Degeneracy: K = 1, R = 1 is the seed theory                         *)
(* ------------------------------------------------------------------ *)

let single_pair ~power ~gains =
  N.Scenario.make ~relay_ids:[| "r00" |]
    ~pairs:
      [ { N.Scenario.pair_id = "p0000";
          power;
          candidates = [| { RS.relay_id = "r00"; gains } |];
        }
      ]

(* Byte-identical, not merely close: the degenerate network passes
   through the same memoized [Optimize.sum_rate] and grants the single
   pair a share of exactly 1.0, so every float must be [=] to the
   single-pair result — under both allocation strategies. *)
let prop_degenerate_matches_optimize =
  QCheck.Test.make ~count:200
    ~name:"K=1/R=1 reproduces Optimize.sum_rate byte-for-byte (per protocol)"
    QCheck.(pair (float_range (-5.) 15.) gains_gen)
    (fun (power_db, g) ->
      let gains = gains_of g in
      let power = Numerics.Float_utils.db_to_lin power_db in
      let sc = single_pair ~power ~gains in
      List.for_all
        (fun protocol ->
          let reference =
            Bidir.Optimize.sum_rate protocol Bidir.Bound.Inner
              (Bidir.Gaussian.scenario_lin ~power ~gains)
          in
          let table = N.Assign.rate_table ~protocols:[ protocol ] sc in
          let choice = table.N.Assign.choices.(0).(0) in
          choice.RS.sum_rate = reference.Bidir.Optimize.sum_rate
          && choice.RS.deltas = reference.Bidir.Optimize.deltas
          && List.for_all
               (fun strategy ->
                 let sol = N.Assign.solve_table strategy table in
                 sol.N.Assign.sum_rate = reference.Bidir.Optimize.sum_rate
                 && sol.N.Assign.per_pair
                    = [ ("p0000", reference.Bidir.Optimize.sum_rate) ]
                 &&
                 match sol.N.Assign.links with
                 | [ l ] ->
                   l.N.Assign.share = 1.
                   && l.N.Assign.rate = reference.Bidir.Optimize.sum_rate
                   && String.equal l.N.Assign.relay_id "r00"
                   && Bidir.Protocol.equal l.N.Assign.protocol protocol
                 | _ -> false)
               [ N.Assign.Greedy; N.Assign.Lp ])
        Bidir.Protocol.coded)

(* ------------------------------------------------------------------ *)
(* Per-pair bound sanity on random topologies                          *)
(* ------------------------------------------------------------------ *)

let prop_inner_within_outer_per_pair =
  QCheck.Test.make ~count:6
    ~name:"every (pair, relay) system keeps inner region inside outer"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let sc = N.Scenario.random ~pairs:3 ~relays:2 ~seed () in
      let table = N.Assign.rate_table sc in
      let ok = ref true in
      Array.iteri
        (fun k row ->
          let power = sc.N.Scenario.pairs.(k).N.Scenario.power in
          Array.iter
            (fun (choice : RS.choice) ->
              let s =
                Bidir.Gaussian.scenario_lin ~power
                  ~gains:choice.RS.relay.RS.gains
              in
              let p = choice.RS.protocol in
              let inner = Bidir.Gaussian.bounds p Bidir.Bound.Inner s in
              let outer = Bidir.Gaussian.bounds p Bidir.Bound.Outer s in
              if not (Bidir.Rate_region.contains_region outer inner)
              then ok := false)
            row)
        table.N.Assign.choices;
      !ok)

(* ------------------------------------------------------------------ *)
(* Assignment LP: monotonicity and dominance                          *)
(* ------------------------------------------------------------------ *)

(* more relays can only grow the feasible polytope *)
let prop_sum_rate_monotone_in_relays =
  QCheck.Test.make ~count:6 ~name:"LP sum rate monotone in relay count"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let sc = N.Scenario.random ~pairs:4 ~relays:3 ~seed () in
      let rate keep =
        (N.Assign.solve N.Assign.Lp (N.Scenario.restrict_relays sc ~keep))
          .N.Assign.sum_rate
      in
      let r1 = rate 1 and r2 = rate 2 and r3 = rate 3 in
      r1 <= r2 +. 1e-9 && r2 <= r3 +. 1e-9)

(* more power grows every standalone rate, hence every LP coefficient *)
let prop_sum_rate_monotone_in_power =
  QCheck.Test.make ~count:6 ~name:"LP sum rate monotone in power"
    QCheck.(pair (int_range 0 10_000) (float_range 1.2 4.))
    (fun (seed, factor) ->
      let sc = N.Scenario.random ~pairs:4 ~relays:2 ~seed () in
      let rate s = (N.Assign.solve N.Assign.Lp s).N.Assign.sum_rate in
      rate sc <= rate (N.Scenario.scale_power sc ~factor) +. 1e-9)

(* the greedy allocation is a feasible point of the assignment LP, and
   both must respect the unit-airtime rows *)
let prop_lp_dominates_greedy =
  QCheck.Test.make ~count:8
    ~name:"LP sum rate >= greedy; airtime constraints respected"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let sc = N.Scenario.random ~pairs:5 ~relays:2 ~seed () in
      let table = N.Assign.rate_table sc in
      let greedy = N.Assign.solve_table N.Assign.Greedy table in
      let lp = N.Assign.solve_table N.Assign.Lp table in
      let airtime_ok (sol : N.Assign.solution) =
        let by f =
          let tbl = Hashtbl.create 8 in
          List.iter
            (fun (l : N.Assign.link) ->
              let key = f l in
              let prev = Option.value ~default:0. (Hashtbl.find_opt tbl key) in
              Hashtbl.replace tbl key (prev +. l.N.Assign.share))
            sol.N.Assign.links;
          Hashtbl.fold (fun _ v acc -> acc && v <= 1. +. 1e-9) tbl true
        in
        List.for_all
          (fun (l : N.Assign.link) ->
            l.N.Assign.share > 0. && l.N.Assign.share <= 1. +. 1e-9)
          sol.N.Assign.links
        && by (fun l -> l.N.Assign.pair_id)
        && by (fun l -> l.N.Assign.relay_id)
      in
      lp.N.Assign.sum_rate >= greedy.N.Assign.sum_rate -. 1e-9
      && airtime_ok greedy && airtime_ok lp)

(* ------------------------------------------------------------------ *)
(* Campaign workload determinism                                       *)
(* ------------------------------------------------------------------ *)

let render result = J.to_string (R.result_to_json result)

let test_campaign_domains_byte_identical () =
  let run domains =
    render
      (R.run
         (R.default_config ~seed:41 ~domains ~batch:4 ~replications:12 ())
         (W.network ~pairs:5 ~relays:2 ()))
  in
  let one = run 1 in
  List.iter
    (fun domains ->
      Alcotest.(check string)
        (Printf.sprintf "domains=%d matches domains=1" domains)
        one (run domains))
    [ 2; 8 ]

let test_campaign_batch_invariant () =
  let run batch =
    render
      (R.run
         (R.default_config ~seed:13 ~batch ~replications:10 ())
         (W.network ~pairs:4 ~relays:2 ()))
  in
  let baseline = run 32 in
  List.iter
    (fun batch ->
      Alcotest.(check string)
        (Printf.sprintf "batch=%d matches batch=32" batch)
        baseline (run batch))
    [ 1; 5; 10 ]

let with_temp_checkpoint f =
  let path = Filename.temp_file "network_ckpt" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_campaign_resume_byte_identical () =
  with_temp_checkpoint (fun path ->
      let workload () = W.network ~pairs:4 ~relays:2 () in
      let fresh =
        R.run
          (R.default_config ~seed:29 ~batch:3 ~replications:12 ())
          (workload ())
      in
      let partial =
        R.run
          (R.default_config ~seed:29 ~batch:3 ~checkpoint:path
             ~replications:6 ())
          (workload ())
      in
      Alcotest.(check int) "partial run completed" 6 partial.R.completed;
      let resumed =
        R.run
          (R.default_config ~seed:29 ~batch:3 ~checkpoint:path ~resume:true
             ~domains:3 ~replications:12 ())
          (workload ())
      in
      Alcotest.(check string) "resumed result matches uninterrupted run"
        (render fresh) (render resumed))

(* the LP never loses to greedy, so the workload's gap metric is a
   non-negative mean with merged counters *)
let test_campaign_gap_non_negative () =
  let result =
    R.run
      (R.default_config ~seed:7 ~batch:4 ~replications:8 ())
      (W.network ~pairs:5 ~relays:2 ())
  in
  let gap = List.assoc "greedy_gap" result.R.values in
  Alcotest.(check bool) "mean greedy gap >= 0" true (gap.R.mean >= -1e-12);
  Alcotest.(check int) "pairs counter merged" (8 * 5)
    (List.assoc "pairs" result.R.counters);
  Alcotest.(check int) "relays counter merged" (8 * 2)
    (List.assoc "relays" result.R.counters)

(* ------------------------------------------------------------------ *)
(* Relay_selection backfill                                            *)
(* ------------------------------------------------------------------ *)

let cands_of gains_list =
  List.mapi
    (fun i g -> { RS.relay_id = Printf.sprintf "c%02d" i; gains = gains_of g })
    gains_list

let prop_best_matches_brute_force =
  QCheck.Test.make ~count:40
    ~name:"best equals the brute-force max over (candidate, protocol)"
    QCheck.(
      pair (float_range (-5.) 15.)
        (list_of_size Gen.(int_range 1 4) gains_gen))
    (fun (power_db, gains_list) ->
      let power = Numerics.Float_utils.db_to_lin power_db in
      let cands = cands_of gains_list in
      let best = RS.best ~power cands in
      let brute =
        List.fold_left
          (fun acc (cand : RS.candidate) ->
            List.fold_left
              (fun acc p ->
                Float.max acc
                  (Bidir.Optimize.sum_rate p Bidir.Bound.Inner
                     (Bidir.Gaussian.scenario_lin ~power ~gains:cand.RS.gains))
                    .Bidir.Optimize.sum_rate)
              acc Bidir.Protocol.all)
          neg_infinity cands
      in
      Float.abs (best.RS.sum_rate -. brute) <= 1e-12)

let prop_best_tie_keeps_earlier =
  QCheck.Test.make ~count:30
    ~name:"duplicated candidates: the earlier copy wins every tie"
    QCheck.(
      pair (float_range (-5.) 15.)
        (list_of_size Gen.(int_range 1 3) gains_gen))
    (fun (power_db, gains_list) ->
      let power = Numerics.Float_utils.db_to_lin power_db in
      let cands = cands_of gains_list in
      let best = RS.best ~power cands in
      (* append an exact copy of every candidate under a fresh id: no
         duplicate is strictly better, so the winner must not move *)
      let dup =
        List.map (fun c -> { c with RS.relay_id = c.RS.relay_id ^ "'" }) cands
      in
      let best2 = RS.best ~power (cands @ dup) in
      String.equal best2.RS.relay.RS.relay_id best.RS.relay.RS.relay_id
      && best2.RS.sum_rate = best.RS.sum_rate)

let test_best_empty_raises () =
  (match RS.best ~power:10. [] with
  | (_ : RS.choice) -> Alcotest.fail "empty candidate list accepted"
  | exception Invalid_argument _ -> ());
  let cand =
    { RS.relay_id = "r"; gains = Channel.Gains.of_db ~g_ab:1. ~g_ar:2. ~g_br:3. }
  in
  match RS.best ~protocols:[] ~power:10. [ cand ] with
  | (_ : RS.choice) -> Alcotest.fail "empty protocol list accepted"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Scenario validation                                                 *)
(* ------------------------------------------------------------------ *)

let test_scenario_validation () =
  let cand id = { RS.relay_id = id; gains = gains_of (1., 2., 3.) } in
  let pair ?(power = 10.) candidates =
    { N.Scenario.pair_id = "p0000"; power; candidates }
  in
  let invalid msg f =
    match ignore (f () : N.Scenario.t) with
    | () -> Alcotest.failf "%s: expected Invalid_argument" msg
    | exception Invalid_argument _ -> ()
  in
  invalid "no relays" (fun () ->
      N.Scenario.make ~relay_ids:[||] ~pairs:[ pair [||] ]);
  invalid "no pairs" (fun () ->
      N.Scenario.make ~relay_ids:[| "r00" |] ~pairs:[]);
  invalid "candidate count mismatch" (fun () ->
      N.Scenario.make ~relay_ids:[| "r00"; "r01" |]
        ~pairs:[ pair [| cand "r00" |] ]);
  invalid "candidate id mismatch" (fun () ->
      N.Scenario.make ~relay_ids:[| "r00" |] ~pairs:[ pair [| cand "r01" |] ]);
  invalid "non-positive power" (fun () ->
      N.Scenario.make ~relay_ids:[| "r00" |]
        ~pairs:[ pair ~power:0. [| cand "r00" |] ]);
  let sc = N.Scenario.random ~pairs:3 ~relays:2 ~seed:1 () in
  invalid "restrict_relays keep=0" (fun () ->
      N.Scenario.restrict_relays sc ~keep:0);
  invalid "restrict_relays keep too large" (fun () ->
      N.Scenario.restrict_relays sc ~keep:3);
  invalid "scale_power factor=0" (fun () ->
      N.Scenario.scale_power sc ~factor:0.);
  (* equal seeds give byte-identical topologies *)
  let again = N.Scenario.random ~pairs:3 ~relays:2 ~seed:1 () in
  Alcotest.(check bool) "random scenario deterministic in seed" true
    (sc = again)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_degenerate_matches_optimize;
      prop_inner_within_outer_per_pair;
      prop_sum_rate_monotone_in_relays;
      prop_sum_rate_monotone_in_power;
      prop_lp_dominates_greedy;
      prop_best_matches_brute_force;
      prop_best_tie_keeps_earlier;
    ]

let suites =
  [ ("network.properties", qcheck_cases);
    ( "network.campaign",
      [ Alcotest.test_case "byte-identical across domains" `Quick
          test_campaign_domains_byte_identical;
        Alcotest.test_case "batch size does not change results" `Quick
          test_campaign_batch_invariant;
        Alcotest.test_case "checkpoint/resume matches uninterrupted run"
          `Quick test_campaign_resume_byte_identical;
        Alcotest.test_case "greedy gap non-negative, counters merged" `Quick
          test_campaign_gap_non_negative;
      ] );
    ( "network.validation",
      [ Alcotest.test_case "relay_selection empty inputs raise" `Quick
          test_best_empty_raises;
        Alcotest.test_case "scenario validation" `Quick
          test_scenario_validation;
      ] );
  ]
