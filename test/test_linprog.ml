(* Tests for the simplex LP engine, [Linprog.Solver]. Its answers are
   checked against [Lp_oracle], an exhaustive basis enumeration that
   shares no code with it. *)

let check_float ?(eps = 1e-7) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* A one-shot solve: a fresh solver, phase 1, one phase 2. *)
let solve_max c constrs =
  Linprog.Solver.reoptimize
    (Linprog.Solver.create ~nvars:(Array.length c) ~constrs)
    ~c

let feasible ~nvars constrs =
  Linprog.Solver.feasible (Linprog.Solver.create ~nvars ~constrs)

let oracle_max c constrs = Lp_oracle.maximize ~c ~constrs

let expect_optimal = function
  | Linprog.Simplex.Optimal s -> s
  | Linprog.Simplex.Unbounded -> Alcotest.fail "unexpected: unbounded"
  | Linprog.Simplex.Infeasible -> Alcotest.fail "unexpected: infeasible"

let le = Linprog.Simplex.Le
let ge = Linprog.Simplex.Ge
let eq = Linprog.Simplex.Eq
let c_ = Linprog.Simplex.constr

(* ------------------------------------------------------------------ *)
(* Textbook instances                                                  *)
(* ------------------------------------------------------------------ *)

let test_basic_2d () =
  (* max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), obj 36 *)
  let s =
    expect_optimal
      (solve_max [| 3.; 5. |]
         [ c_ [| 1.; 0. |] le 4.;
           c_ [| 0.; 2. |] le 12.;
           c_ [| 3.; 2. |] le 18.;
         ])
  in
  check_float "objective" 36. s.Linprog.Simplex.objective;
  check_float "x" 2. s.Linprog.Simplex.x.(0);
  check_float "y" 6. s.Linprog.Simplex.x.(1)

let test_equality_constraint () =
  (* max x + y s.t. x + y = 5, x <= 3 -> obj 5 *)
  let s =
    expect_optimal
      (solve_max [| 1.; 1. |]
         [ c_ [| 1.; 1. |] eq 5.; c_ [| 1.; 0. |] le 3. ])
  in
  check_float "objective" 5. s.Linprog.Simplex.objective

let test_ge_constraint () =
  (* min x + 2y s.t. x + y >= 4, x <= 3, y <= 3 -> (3, 1), obj 5,
     as max -x - 2y *)
  let s =
    expect_optimal
      (solve_max [| -1.; -2. |]
         [ c_ [| 1.; 1. |] ge 4.; c_ [| 1.; 0. |] le 3.; c_ [| 0.; 1. |] le 3. ])
  in
  check_float "objective" (-5.) s.Linprog.Simplex.objective;
  check_float "x" 3. s.Linprog.Simplex.x.(0);
  check_float "y" 1. s.Linprog.Simplex.x.(1)

let test_unbounded () =
  match solve_max [| 1.; 0. |] [ c_ [| 0.; 1. |] le 1. ] with
  | Linprog.Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_infeasible () =
  match
    solve_max [| 1. |] [ c_ [| 1. |] le 1.; c_ [| 1. |] ge 2. ]
  with
  | Linprog.Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_negative_rhs () =
  (* -x <= -2 means x >= 2; max -x -> x = 2 *)
  let s = expect_optimal (solve_max [| -1. |] [ c_ [| -1. |] le (-2.) ]) in
  check_float "objective" (-2.) s.Linprog.Simplex.objective

let test_degenerate () =
  (* degenerate vertex: three constraints meet at (1,1) *)
  let s =
    expect_optimal
      (solve_max [| 1.; 1. |]
         [ c_ [| 1.; 0. |] le 1.;
           c_ [| 0.; 1. |] le 1.;
           c_ [| 1.; 1. |] le 2.;
         ])
  in
  check_float "objective" 2. s.Linprog.Simplex.objective

let test_redundant_equalities () =
  (* duplicated equality rows exercise the redundant-row drop *)
  let s =
    expect_optimal
      (solve_max [| 1.; 1. |]
         [ c_ [| 1.; 1. |] eq 3.;
           c_ [| 1.; 1. |] eq 3.;
           c_ [| 1.; 0. |] le 2.;
         ])
  in
  check_float "objective" 3. s.Linprog.Simplex.objective

let test_zero_objective () =
  let s = expect_optimal (solve_max [| 0.; 0. |] [ c_ [| 1.; 1. |] le 1. ]) in
  check_float "objective" 0. s.Linprog.Simplex.objective

let test_feasible () =
  Alcotest.(check bool) "feasible" true
    (feasible ~nvars:2 [ c_ [| 1.; 1. |] le 1. ]);
  Alcotest.(check bool) "infeasible" false
    (feasible ~nvars:1 [ c_ [| 1. |] le 1.; c_ [| 1. |] ge 2. ])

let test_klee_minty_3 () =
  (* Klee-Minty cube in 3 dimensions: optimum is 5^3 / ... classic form:
     max 100x1 + 10x2 + x3
     s.t. x1 <= 1; 20x1 + x2 <= 100; 200x1 + 20x2 + x3 <= 10000
     optimum 10000 at (0, 0, 10000) *)
  let s =
    expect_optimal
      (solve_max [| 100.; 10.; 1. |]
         [ c_ [| 1.; 0.; 0. |] le 1.;
           c_ [| 20.; 1.; 0. |] le 100.;
           c_ [| 200.; 20.; 1. |] le 10000.;
         ])
  in
  check_float "objective" 10000. s.Linprog.Simplex.objective

let test_phase_duration_shape () =
  (* the exact LP shape used for MABC rate regions:
     max Ra + Rb s.t. Ra <= 2 d1, Ra <= 3 d2, Rb <= 2 d1, Rb <= 3 d2,
     Ra + Rb <= 3 d1, d1 + d2 = 1.
     Substituting: optimal d1 solves 3 d1 = 2 * 3 (1 - d1)... the binding
     constraints are Ra+Rb <= 3 d1 and Ra,Rb <= 3 d2 each. Sum rate =
     min(3 d1, 6 (1 - d1) capped by per-user 2 d1 each: Ra+Rb <= 4 d1).
     max over d1 of min(3 d1, 4 d1, 6(1-d1)) -> 3 d1 = 6 - 6 d1 ->
     d1 = 2/3, sum = 2. *)
  let s =
    expect_optimal
      (solve_max
         [| 1.; 1.; 0.; 0. |] (* Ra Rb d1 d2 *)
         [ c_ [| 1.; 0.; -2.; 0. |] le 0.;
           c_ [| 1.; 0.; 0.; -3. |] le 0.;
           c_ [| 0.; 1.; -2.; 0. |] le 0.;
           c_ [| 0.; 1.; 0.; -3. |] le 0.;
           c_ [| 1.; 1.; -3.; 0. |] le 0.;
           c_ [| 0.; 0.; 1.; 1. |] eq 1.;
         ])
  in
  check_float "sum rate" 2. s.Linprog.Simplex.objective;
  check_float "d1" (2. /. 3.) s.Linprog.Simplex.x.(2)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Outcome classes must match; optimal objectives must agree to 1e-9
   (relative — the engine pivots to the optimum, the oracle solves for
   it, so only round-off separates them). The optimal *points* may
   legitimately differ on a degenerate face. *)
let same_outcome a b =
  match (a, b) with
  | Linprog.Simplex.Optimal s1, Linprog.Simplex.Optimal s2 ->
    let o1 = s1.Linprog.Simplex.objective
    and o2 = s2.Linprog.Simplex.objective in
    abs_float (o1 -. o2) <= 1e-9 *. (1. +. Float.max (abs_float o1) (abs_float o2))
  | Linprog.Simplex.Unbounded, Linprog.Simplex.Unbounded -> true
  | Linprog.Simplex.Infeasible, Linprog.Simplex.Infeasible -> true
  | _ -> false

(* Random LPs over the first n (1 to 4) of four variables and 1-5 rows
   of every relation, with coefficients and right-hand sides of either
   sign (so the engine's sign normalisation runs): the three outcome
   classes all occur. *)
let lp_general_gen =
  let coeffs = QCheck.(array_of_size (Gen.return 4) (float_range (-2.) 5.)) in
  QCheck.(
    triple (int_range 1 4) coeffs
      (list_of_size Gen.(int_range 1 5)
         (triple (int_range 0 3) coeffs (float_range (-5.) 20.))))

let prop_simplex_matches_oracle =
  QCheck.Test.make ~count:300
    ~name:"simplex = vertex enumeration (n variables, Le/Ge/Eq)" lp_general_gen
    (fun (n, c, rows) ->
      let c = Array.sub c 0 n in
      let constrs =
        List.map
          (fun (rel, a, r) ->
            c_ (Array.sub a 0 n) (match rel with 0 | 1 -> le | 2 -> ge | _ -> eq) r)
          rows
      in
      same_outcome (solve_max c constrs) (oracle_max c constrs))

let lp_2d_gen =
  (* random bounded-feasible 2-D LP: positive coefficients guarantee
     boundedness, rhs > 0 guarantees feasibility (origin works) *)
  QCheck.(
    pair
      (pair (float_range 0.1 5.) (float_range 0.1 5.))
      (list_of_size Gen.(int_range 1 6)
         (triple (float_range 0.1 5.) (float_range 0.1 5.)
            (float_range 0.5 20.))))

let prop_solution_is_feasible =
  QCheck.Test.make ~count:300 ~name:"optimal point satisfies constraints"
    lp_2d_gen (fun ((c1, c2), rows) ->
      let constrs = List.map (fun (a, b, r) -> c_ [| a; b |] le r) rows in
      match solve_max [| c1; c2 |] constrs with
      | Linprog.Simplex.Optimal s ->
        let x = s.Linprog.Simplex.x in
        x.(0) >= -1e-7 && x.(1) >= -1e-7
        && List.for_all
             (fun (a, b, r) -> (a *. x.(0)) +. (b *. x.(1)) <= r +. 1e-6)
             rows
      | _ -> false)

let prop_duality_bound =
  (* weak duality sanity: scaling the objective scales the optimum *)
  QCheck.Test.make ~count:100 ~name:"objective scaling" lp_2d_gen
    (fun ((c1, c2), rows) ->
      let constrs = List.map (fun (a, b, r) -> c_ [| a; b |] le r) rows in
      match
        (solve_max [| c1; c2 |] constrs, solve_max [| 2. *. c1; 2. *. c2 |] constrs)
      with
      | Linprog.Simplex.Optimal s1, Linprog.Simplex.Optimal s2 ->
        abs_float ((2. *. s1.Linprog.Simplex.objective) -. s2.Linprog.Simplex.objective)
        < 1e-5
      | _ -> false)

(* Mixed Le/Ge systems: rows a x + b y (<=|>=) r with a, b > 0 and
   r > 0. Le rows keep the system bounded near the origin; Ge rows can
   push it infeasible, which is exactly the regime where [feasible] and
   a solve must agree on the verdict. *)
let lp_mixed_gen =
  QCheck.(
    pair
      (pair (float_range 0.1 5.) (float_range 0.1 5.))
      (list_of_size Gen.(int_range 2 6)
         (quad bool (float_range 0.1 5.) (float_range 0.1 5.)
            (float_range 0.5 20.))))

let mixed_constrs rows =
  List.map
    (fun (is_ge, a, b, r) -> c_ [| a; b |] (if is_ge then ge else le) r)
    rows

let prop_feasible_agrees_with_maximize =
  QCheck.Test.make ~count:300 ~name:"feasible agrees with maximize status"
    lp_mixed_gen (fun ((c1, c2), rows) ->
      let constrs = mixed_constrs rows in
      let f = feasible ~nvars:2 constrs in
      match solve_max [| c1; c2 |] constrs with
      | Linprog.Simplex.Optimal _ | Linprog.Simplex.Unbounded -> f
      | Linprog.Simplex.Infeasible -> not f)

let prop_duplicate_rows_invariant =
  QCheck.Test.make ~count:300 ~name:"duplicating a constraint keeps optimum"
    lp_2d_gen (fun ((c1, c2), rows) ->
      let constrs = List.map (fun (a, b, r) -> c_ [| a; b |] le r) rows in
      let doubled = constrs @ constrs in
      match
        (solve_max [| c1; c2 |] constrs, solve_max [| c1; c2 |] doubled)
      with
      | Linprog.Simplex.Optimal s1, Linprog.Simplex.Optimal s2 ->
        abs_float
          (s1.Linprog.Simplex.objective -. s2.Linprog.Simplex.objective)
        < 1e-6
      | _ -> false)

let prop_scaled_rows_invariant =
  (* scaling a row a x <= r to k a x <= k r (k > 0) describes the same
     half-plane, so the optimum must not move *)
  QCheck.Test.make ~count:300 ~name:"scaling a constraint keeps optimum"
    QCheck.(pair lp_2d_gen (float_range 0.2 10.))
    (fun (((c1, c2), rows), k) ->
      let constrs = List.map (fun (a, b, r) -> c_ [| a; b |] le r) rows in
      let scaled =
        List.map (fun (a, b, r) -> c_ [| k *. a; k *. b |] le (k *. r)) rows
      in
      match
        (solve_max [| c1; c2 |] constrs, solve_max [| c1; c2 |] scaled)
      with
      | Linprog.Simplex.Optimal s1, Linprog.Simplex.Optimal s2 ->
        abs_float
          (s1.Linprog.Simplex.objective -. s2.Linprog.Simplex.objective)
        < 1e-5
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Warm-started solves vs the oracle                                   *)
(* ------------------------------------------------------------------ *)

(* lp_mixed_gen spans all three outcome classes: Le-only systems are
   bounded-feasible, Ge rows can make them infeasible, and Ge-only
   systems are unbounded above for a positive objective. *)
let prop_solver_matches_oracle =
  QCheck.Test.make ~count:500
    ~name:"Solver.reoptimize = oracle (mixed Le/Ge)"
    lp_mixed_gen (fun ((c1, c2), rows) ->
      let constrs = mixed_constrs rows in
      let c = [| c1; c2 |] in
      same_outcome (solve_max c constrs) (oracle_max c constrs))

let objective_seq_gen =
  QCheck.(
    pair lp_mixed_gen
      (list_of_size Gen.(int_range 1 8)
         (pair (float_range (-5.) 5.) (float_range (-5.) 5.))))

let prop_solver_objective_sequence =
  (* one instance, many objectives: every warm-started solve in the
     sequence must match the oracle on the same LP, including sign
     flips that turn an unbounded direction on and off *)
  QCheck.Test.make ~count:200
    ~name:"warm-started objective sweep matches the oracle"
    objective_seq_gen (fun (((c1, c2), rows), cs) ->
      let constrs = mixed_constrs rows in
      let solver = Linprog.Solver.create ~nvars:2 ~constrs in
      List.for_all
        (fun (a, b) ->
          let c = [| a; b |] in
          same_outcome
            (Linprog.Solver.reoptimize solver ~c)
            (oracle_max c constrs))
        ((c1, c2) :: cs))

(* Two systems sharing a structural shape (row count and relations), so
   [rebuild] attempts to carry the optimal basis of the first across to
   the second. *)
let lp_paired_gen =
  QCheck.(
    pair
      (pair (float_range 0.1 5.) (float_range 0.1 5.))
      (list_of_size Gen.(int_range 2 6)
         (pair
            (quad bool (float_range 0.1 5.) (float_range 0.1 5.)
               (float_range 0.5 20.))
            (triple (float_range 0.1 5.) (float_range 0.1 5.)
               (float_range 0.5 20.)))))

let prop_solver_rebuild_matches_fresh =
  QCheck.Test.make ~count:300
    ~name:"rebuild (basis carry) matches the oracle"
    lp_paired_gen (fun ((c1, c2), rows) ->
      let rows1 = List.map fst rows in
      let rows2 =
        List.map (fun ((is_ge, _, _, _), (a, b, r)) -> (is_ge, a, b, r)) rows
      in
      let constrs2 = mixed_constrs rows2 in
      let c = [| c1; c2 |] in
      let solver =
        Linprog.Solver.create ~nvars:2 ~constrs:(mixed_constrs rows1)
      in
      (* establish an optimal basis on system 1 so the rebuild has
         something to carry (create alone only leaves a phase-1 basis) *)
      ignore (Linprog.Solver.reoptimize solver ~c);
      Linprog.Solver.rebuild solver ~constrs:constrs2;
      let expected = oracle_max c constrs2 in
      same_outcome (Linprog.Solver.reoptimize solver ~c) expected
      && Bool.equal
           (Linprog.Solver.feasible solver)
           (expected <> Linprog.Simplex.Infeasible))

(* ------------------------------------------------------------------ *)
(* Solver stress: basis carry across a long structurally-similar sweep *)
(* ------------------------------------------------------------------ *)

(* One solver instance carried across 120 LPs that share a structural
   shape (same variable count, row count and relations, perturbed
   coefficients) — the pattern the rate-table sweeps produce. Every
   warm outcome must match the oracle to 1e-9 and the whole warm sweep
   must stay within the pivot budget of one-shot cold solves (the
   point of carrying the basis). *)
let test_solver_stress_basis_carry () =
  let nvars = 6 and nrows = 8 and systems = 120 in
  let rng = Prob.Rng.create ~seed:2024 in
  let fresh_system () =
    List.init nrows (fun _ ->
        let coeffs =
          Array.init nvars (fun _ -> Prob.Rng.float_range rng ~lo:0.1 ~hi:2.)
        in
        c_ coeffs le (Prob.Rng.float_range rng ~lo:1. ~hi:5.))
  in
  let objective () =
    Array.init nvars (fun _ -> Prob.Rng.float_range rng ~lo:0.1 ~hi:1.)
  in
  let instances =
    List.init systems (fun _ ->
        let constrs = fresh_system () in
        (constrs, objective ()))
  in
  let pivots = Telemetry.Metrics.counter "linprog.pivots" in
  let measure f =
    let before = Telemetry.Metrics.value pivots in
    let r = f () in
    (r, Telemetry.Metrics.value pivots - before)
  in
  let (), cold_pivots =
    measure (fun () ->
        List.iter (fun (constrs, c) -> ignore (expect_optimal (solve_max c constrs)))
          instances)
  in
  (* Le rows with positive coefficients bound every system, so its
     optimum is its best vertex: no box needed *)
  let oracle_objs =
    List.map
      (fun (constrs, c) ->
        List.fold_left
          (fun m x -> Float.max m (Lp_oracle.dot c x))
          neg_infinity
          (Lp_oracle.vertices ~nvars constrs))
      instances
  in
  let warm_objs, warm_pivots =
    measure (fun () ->
        let solver =
          Linprog.Solver.create ~nvars ~constrs:(fst (List.hd instances))
        in
        List.map
          (fun (constrs, c) ->
            Linprog.Solver.rebuild solver ~constrs;
            (expect_optimal (Linprog.Solver.reoptimize solver ~c))
              .Linprog.Simplex.objective)
          instances)
  in
  List.iteri
    (fun i (oracle, warm) ->
      let tol = 1e-9 *. Float.max 1. (Float.abs oracle) in
      if Float.abs (oracle -. warm) > tol then
        Alcotest.failf "system %d: oracle %.12g vs warm %.12g" i oracle warm)
    (List.combine oracle_objs warm_objs);
  Alcotest.(check bool)
    (Printf.sprintf "warm sweep pivots (%d) within cold budget (%d)"
       warm_pivots cold_pivots)
    true
    (warm_pivots <= cold_pivots)

(* ------------------------------------------------------------------ *)
(* Flat-kernel zero-allocation API: reoptimize_into                    *)
(* ------------------------------------------------------------------ *)

(* The into-API against the oracle, across all three outcome classes
   (objective lands in x.(nvars)). *)
let prop_reoptimize_into_matches_oracle =
  QCheck.Test.make ~count:500
    ~name:"Solver.reoptimize_into = oracle (mixed Le/Ge)"
    lp_mixed_gen (fun ((c1, c2), rows) ->
      let constrs = mixed_constrs rows in
      let c = [| c1; c2 |] in
      let solver = Linprog.Solver.create ~nvars:2 ~constrs in
      let x = Array.make 3 0. in
      match (Linprog.Solver.reoptimize_into solver ~c ~x, oracle_max c constrs)
      with
      | Linprog.Solver.Optimal, Linprog.Simplex.Optimal s ->
        let o1 = x.(2) and o2 = s.Linprog.Simplex.objective in
        abs_float (o1 -. o2)
        <= 1e-9 *. (1. +. Float.max (abs_float o1) (abs_float o2))
      | Linprog.Solver.Unbounded, Linprog.Simplex.Unbounded -> true
      | Linprog.Solver.Infeasible, Linprog.Simplex.Infeasible -> true
      | _ -> false)

(* Warm sweep: the into-API and the allocating API run the same kernel
   pivot path, so they must agree bitwise — verdicts, solution vector
   and objective — on every solve of the sequence. *)
let prop_reoptimize_into_matches_reoptimize =
  QCheck.Test.make ~count:200
    ~name:"warm reoptimize_into sweep = reoptimize sweep (bitwise)"
    objective_seq_gen (fun (((c1, c2), rows), cs) ->
      let constrs = mixed_constrs rows in
      let s_into = Linprog.Solver.create ~nvars:2 ~constrs in
      let s_ref = Linprog.Solver.create ~nvars:2 ~constrs in
      let x = Array.make 3 0. in
      List.for_all
        (fun (a, b) ->
          let c = [| a; b |] in
          match
            ( Linprog.Solver.reoptimize_into s_into ~c ~x,
              Linprog.Solver.reoptimize s_ref ~c )
          with
          | Linprog.Solver.Optimal, Linprog.Simplex.Optimal s ->
            x.(2) = s.Linprog.Simplex.objective
            && x.(0) = s.Linprog.Simplex.x.(0)
            && x.(1) = s.Linprog.Simplex.x.(1)
          | Linprog.Solver.Unbounded, Linprog.Simplex.Unbounded -> true
          | Linprog.Solver.Infeasible, Linprog.Simplex.Infeasible -> true
          | _ -> false)
        ((c1, c2) :: cs))

(* Minor words allocated by [f ()], net of what the measurement itself
   costs (boxing the first reading across the call). [Gc.minor_words]
   reads the live allocation pointer, so one word anywhere counts. *)
let factored_solves = Telemetry.Metrics.counter "linprog.factored_solves"

let minor_words_of f =
  let measure f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let overhead = measure ignore in
  measure f -. overhead

(* The headline property of the flat kernel: a warm [reoptimize_into]
   allocates zero words — tableau, scratch, pricing, telemetry and the
   solution hand-off all live in preallocated buffers. A sweep may
   start with [load]: a carried [Solver.load] leaves the basis factored,
   and the sweep's first solve ends on it or builds the tableau. The
   first pass settles the basis and faults every path in; the second is
   measured, and must read 0 (the historical nested-array engine
   allocated ~59 B/solve). Returns the measured pass's factored
   solves. *)
let check_warm_sweep_zero_alloc ?(load = fun _ -> ()) label ~nvars ~constrs
    objectives =
  let n = Array.length objectives in
  let solver = Linprog.Solver.create ~nvars ~constrs in
  let x = Array.make (nvars + 1) 0. in
  (* a loop, not [Array.iter]: a closure here would be the only heap
     block of the sweep *)
  let sweep () =
    load solver;
    for i = 0 to n - 1 do
      ignore (Linprog.Solver.reoptimize_into solver ~c:objectives.(i) ~x)
    done
  in
  sweep ();
  let f0 = Telemetry.Metrics.value factored_solves in
  Alcotest.(check (float 0.))
    (Printf.sprintf "%s: minor words across %d warm solves" label n)
    0. (minor_words_of sweep);
  Telemetry.Metrics.value factored_solves - f0

let test_reoptimize_into_zero_alloc () =
  let nvars = 5 and nrows = 7 and n = 64 in
  let rng = Prob.Rng.create ~seed:99 in
  let constrs =
    List.init nrows (fun _ ->
        let coeffs =
          Array.init nvars (fun _ -> Prob.Rng.float_range rng ~lo:0.1 ~hi:2.)
        in
        c_ coeffs le (Prob.Rng.float_range rng ~lo:1. ~hi:5.))
  in
  let objectives =
    Array.init n (fun _ ->
        Array.init nvars (fun _ -> Prob.Rng.float_range rng ~lo:0.1 ~hi:1.))
  in
  ignore (check_warm_sweep_zero_alloc "random LP" ~nvars ~constrs objectives : int);
  (* the production LP: every protocol's inner bound at the Fig. 4
     scenario, swept over 129 boundary weights (w, 1 - w) *)
  let scenario =
    Bidir.Gaussian.scenario ~power_db:10. ~gains:Channel.Gains.paper_fig4
  in
  List.iter
    (fun protocol ->
      let nvars, constrs =
        Bidir.Rate_region.lp_constraints
          (Bidir.Gaussian.bounds protocol Bidir.Bound.Inner scenario)
      in
      let weights = 129 in
      let objectives =
        Array.init weights (fun i ->
            let w = float_of_int i /. float_of_int (weights - 1) in
            let c = Array.make nvars 0. in
            c.(0) <- w;
            c.(1) <- 1. -. w;
            c)
      in
      let name = Bidir.Protocol.name protocol ^ " inner bound" in
      ignore (check_warm_sweep_zero_alloc name ~nvars ~constrs objectives : int);
      (* from a factored load: the image reloaded before every sweep,
         whose first objective is the last one of the sweep before, so
         the carried basis is optimal for it and that solve ends on the
         factored basis; the next ones build the tableau and pivot *)
      let image = Linprog.Solver.image ~nvars ~constrs in
      let from_factored =
        Array.append [| objectives.(weights - 1) |] objectives
      in
      Alcotest.(check int) (name ^ ": the sweep's first solve is factored") 1
        (check_warm_sweep_zero_alloc (name ^ ", factored load") ~nvars ~constrs
           ~load:(fun s -> Linprog.Solver.load s image)
           from_factored))
    Bidir.Protocol.all

(* ------------------------------------------------------------------ *)
(* Factored carried bases                                              *)
(* ------------------------------------------------------------------ *)

let row_ops = Telemetry.Metrics.counter "linprog.kernel_row_ops"
let refactor = Telemetry.Metrics.counter "linprog.refactor_eliminations"
let pivots_c = Telemetry.Metrics.counter "linprog.pivots"
let phase1_skipped = Telemetry.Metrics.counter "linprog.phase1_skipped"
let warm_solves = Telemetry.Metrics.counter "linprog.warm_solves"

(* How much each of [counters] moved across [f ()]. *)
let moved counters f =
  let before = List.map Telemetry.Metrics.value counters in
  let r = f () in
  (r, List.map2 (fun c b -> Telemetry.Metrics.value c - b) counters before)

(* x + 2y <= 4s, 3x + y <= 6s: max x + y is where both rows bind,
   (1.6 s, 1.2 s), with x and y basic. *)
let two_rows ?(r2 = 6.) s = [ c_ [| 1.; 2. |] le (4. *. s); c_ [| 3.; 1. |] le (r2 *. s) ]
let two_rows_image ?r2 s = Linprog.Solver.image ~nvars:2 ~constrs:(two_rows ?r2 s)

let solved_at_vertex () =
  let solver = Linprog.Solver.of_image (two_rows_image 1.) in
  ignore (expect_optimal (Linprog.Solver.reoptimize solver ~c:[| 1.; 1. |]));
  solver

(* A carried basis that is optimal for the reloaded system answers from
   its factorisation: no tableau cell is written, so neither the
   kernel's element updates nor the refactorisation count move. *)
let test_factored_optimal_no_tableau () =
  let solver = solved_at_vertex () in
  let x = Array.make 3 0. in
  let verdict, deltas =
    moved [ row_ops; refactor; factored_solves; pivots_c; phase1_skipped ]
      (fun () ->
        Linprog.Solver.load solver (two_rows_image 2.);
        Linprog.Solver.reoptimize_into solver ~c:[| 1.; 1. |] ~x)
  in
  Alcotest.(check bool) "optimal" true (verdict = Linprog.Solver.Optimal);
  Alcotest.(check (list int))
    "row ops, refactor eliminations, factored solves, pivots, phase-1 skips"
    [ 0; 0; 1; 0; 1 ] deltas;
  let s = expect_optimal (oracle_max [| 1.; 1. |] (two_rows 2.)) in
  check_float ~eps:1e-12 "x" s.Linprog.Simplex.x.(0) x.(0);
  check_float ~eps:1e-12 "y" s.Linprog.Simplex.x.(1) x.(1);
  check_float ~eps:1e-12 "objective" s.Linprog.Simplex.objective x.(2);
  (* a feasibility probe on a factored basis needs no tableau either *)
  Linprog.Solver.load solver (two_rows_image 3.);
  let sat, deltas = moved [ row_ops; factored_solves ] (fun () ->
      Linprog.Solver.feasible solver)
  in
  Alcotest.(check bool) "feasible" true sat;
  Alcotest.(check (list int)) "probe: row ops, factored solves" [ 0; 1 ] deltas

(* A carried basis the new right-hand side makes infeasible (the two
   rows now meet at x = -0.6) is not carried: the load runs phase 1
   from the image's slack basis, and the next solve is cold. *)
let test_factored_infeasible_runs_phase1 () =
  let solver = solved_at_vertex () in
  let outcome, deltas =
    moved [ phase1_skipped; warm_solves; factored_solves; refactor ]
      (fun () ->
        Linprog.Solver.load solver (two_rows_image ~r2:0.5 1.);
        Linprog.Solver.reoptimize solver ~c:[| 1.; 1. |])
  in
  Alcotest.(check (list int))
    "phase-1 skips, warm solves, factored solves, refactor eliminations"
    [ 0; 0; 0; 0 ] deltas;
  let s = expect_optimal outcome
  and r = expect_optimal (oracle_max [| 1.; 1. |] (two_rows ~r2:0.5 1.)) in
  check_float ~eps:1e-12 "objective" r.Linprog.Simplex.objective
    s.Linprog.Simplex.objective

(* Partial pivoting takes the carried columns in row order, so a
   non-singular B whose first carried column is tiny in every row is
   declared singular before the other column can pivot first, as full
   pivoting would. [solved_at_vertex] leaves y basic in row 0 (x enters
   first, on the second row), x in row 1. With e = 6e-8 below the 1e-7
   pivot floor, the rows x + e y <= 1 + e and x - e y <= 1 - e meet at
   (1, 1) with det B = 2e: y's column (e, -e) has no usable pivot, so
   the load runs fill + phase 1 and the solve is cold. The mirrored
   system, with x's column tiny, is factored: y pivots first, and
   eliminating it leaves x the pivot -2e, above the floor. *)
let test_factored_partial_pivot_singular () =
  let e = 6e-8 in
  let rows a b = [ c_ a le (1. +. e); c_ b le (1. -. e) ] in
  let load_and_solve constrs c =
    let solver = solved_at_vertex () in
    let x = Array.make 3 0. in
    let verdict, deltas =
      moved [ factored_solves; phase1_skipped; warm_solves; refactor ]
        (fun () ->
          Linprog.Solver.load solver (Linprog.Solver.image ~nvars:2 ~constrs);
          Linprog.Solver.reoptimize_into solver ~c ~x)
    in
    Alcotest.(check bool) "optimal" true (verdict = Linprog.Solver.Optimal);
    check_float ~eps:1e-9 "objective = oracle"
      (expect_optimal (oracle_max c constrs)).Linprog.Simplex.objective x.(2);
    deltas
  in
  Alcotest.(check (list int))
    "y's column tiny: factored solves, phase-1 skips, warm solves, refactor"
    [ 0; 0; 0; 0 ]
    (load_and_solve (rows [| 1.; e |] [| 1.; -.e |]) [| 1.; 0. |]);
  Alcotest.(check (list int))
    "x's column tiny: factored solves, phase-1 skips, warm solves, refactor"
    [ 1; 1; 1; 0 ]
    (load_and_solve (rows [| e; 1. |] [| -.e; 1. |]) [| 0.; 1. |])

(* A carried basis that is feasible but not optimal builds the tableau
   and pivots from it: [reoptimize_into] (which tries the factored
   basis first) and [reoptimize] (which always builds the tableau) take
   the same pivots to the same bits. Max x from the (1.6, 1.2) vertex
   is one pivot, to (2, 0). *)
let test_factored_not_optimal_pivots () =
  let a = solved_at_vertex () and b = solved_at_vertex () in
  let im = two_rows_image 1. in
  Linprog.Solver.load a im;
  Linprog.Solver.load b im;
  let x = Array.make 3 0. in
  let pa0 = Linprog.Solver.pivots a and pb0 = Linprog.Solver.pivots b in
  let verdict, deltas =
    moved [ factored_solves; refactor ] (fun () ->
        Linprog.Solver.reoptimize_into a ~c:[| 1.; 0. |] ~x)
  in
  Alcotest.(check bool) "optimal" true (verdict = Linprog.Solver.Optimal);
  Alcotest.(check (list int)) "factored solves, refactor eliminations (m = 2)"
    [ 0; 2 ] deltas;
  let s = expect_optimal (Linprog.Solver.reoptimize b ~c:[| 1.; 0. |]) in
  Alcotest.(check int) "pivots (factored first)" 1 (Linprog.Solver.pivots a - pa0);
  Alcotest.(check int) "pivots (tableau)" 1 (Linprog.Solver.pivots b - pb0);
  Alcotest.(check bool) "same bits" true
    (Int64.bits_of_float x.(0) = Int64.bits_of_float s.Linprog.Simplex.x.(0)
    && Int64.bits_of_float x.(1) = Int64.bits_of_float s.Linprog.Simplex.x.(1)
    && Int64.bits_of_float x.(2) = Int64.bits_of_float s.Linprog.Simplex.objective);
  check_float ~eps:1e-12 "x" 2. x.(0)

(* Twin solvers over one random history of loads and objectives: one
   answers with [reoptimize_into], which ends on a factored basis when
   it is optimal, the other with [reoptimize], which always builds the
   tableau. Both must take the same pivots to the same bits, so the
   factored check decides exactly as the tableau's pricing does. *)
let prop_factored_matches_tableau =
  QCheck.Test.make ~count:200
    ~name:"factored solves = tableau solves (pivots and bits)"
    QCheck.(
      pair lp_paired_gen
        (list_of_size Gen.(int_range 1 8)
           (triple bool (float_range 0.5 1.5) (pair (float_range 0. 5.) (float_range 0. 5.)))))
    (fun ((c, rows), steps) ->
      let rows1 = List.map fst rows
      and rows2 =
        List.map (fun ((is_ge, _, _, _), (a, b, r)) -> (is_ge, a, b, r)) rows
      in
      let scaled rows s =
        mixed_constrs (List.map (fun (g, a, b, r) -> (g, a, b, r *. s)) rows)
      in
      let image rows s = Linprog.Solver.image ~nvars:2 ~constrs:(scaled rows s) in
      let a = Linprog.Solver.of_image (image rows1 1.)
      and b = Linprog.Solver.of_image (image rows1 1.) in
      let x = Array.make 3 0. in
      let bits v = Int64.bits_of_float v in
      List.for_all
        (fun (second, s, (c1, c2)) ->
          let im = image (if second then rows2 else rows1) s in
          Linprog.Solver.load a im;
          Linprog.Solver.load b im;
          let c = [| c1 +. fst c; c2 +. snd c |] in
          let same =
            match
              (Linprog.Solver.reoptimize_into a ~c ~x, Linprog.Solver.reoptimize b ~c)
            with
            | Linprog.Solver.Optimal, Linprog.Simplex.Optimal s ->
              bits x.(0) = bits s.Linprog.Simplex.x.(0)
              && bits x.(1) = bits s.Linprog.Simplex.x.(1)
              && bits x.(2) = bits s.Linprog.Simplex.objective
            | Linprog.Solver.Unbounded, Linprog.Simplex.Unbounded
            | Linprog.Solver.Infeasible, Linprog.Simplex.Infeasible -> true
            | _ -> false
          in
          same && Linprog.Solver.pivots a = Linprog.Solver.pivots b)
        steps)

(* The kernel adds its work up in plain fields and publishes it once
   per entry point, so every counter is exact when a call returns:
   - a carried [Solver.load] whose basis stays feasible factors it
     without touching the tableau, and moves neither work counter;
   - the first solve that needs a pivot after such a load builds the
     tableau, moving the refactorisation count by the row count;
   - a [Solver.load] whose carried basis is infeasible runs phase 1 in
     the tableau (here an artificial must leave for the x + y >= 1
     row), and has moved the row ops by the time it returns;
   - a one-shot solve, whose solver is dropped when it returns, has
     moved the row ops. *)
let test_kernel_counts_flushed () =
  let value = Telemetry.Metrics.value in
  let with_floor ?r2 s = c_ [| 1.; 1. |] ge 1. :: two_rows ?r2 s in
  let image ?r2 s = Linprog.Solver.image ~nvars:2 ~constrs:(with_floor ?r2 s) in
  let solver = Linprog.Solver.of_image (image 1.) in
  ignore (expect_optimal (Linprog.Solver.reoptimize solver ~c:[| 1.; 1. |]));
  let (), deltas =
    moved [ row_ops; refactor ] (fun () -> Linprog.Solver.load solver (image 2.))
  in
  Alcotest.(check (list int)) "factored load: row ops, refactor eliminations"
    [ 0; 0 ] deltas;
  let _, deltas =
    moved [ row_ops; refactor ] (fun () ->
        expect_optimal (Linprog.Solver.reoptimize solver ~c:[| 1.; 1. |]))
  in
  Alcotest.(check int) "refactor eliminations once the tableau is built" 3
    (List.nth deltas 1);
  Alcotest.(check bool) "row ops once the tableau is built" true
    (List.hd deltas > 0);
  let r0 = value row_ops in
  Linprog.Solver.load solver (image ~r2:0.5 1.);
  Alcotest.(check bool) "row ops after a phase-1 load" true (value row_ops > r0);
  let r1 = value row_ops in
  ignore (expect_optimal (solve_max [| 1.; 1. |] (two_rows 1.)));
  Alcotest.(check bool) "row ops after a one-shot solve" true
    (value row_ops > r1)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_simplex_matches_oracle;
      prop_solution_is_feasible;
      prop_duality_bound;
      prop_feasible_agrees_with_maximize;
      prop_duplicate_rows_invariant;
      prop_scaled_rows_invariant;
      prop_solver_matches_oracle;
      prop_solver_objective_sequence;
      prop_solver_rebuild_matches_fresh;
      prop_reoptimize_into_matches_oracle;
      prop_reoptimize_into_matches_reoptimize;
      prop_factored_matches_tableau;
    ]

let suites =
  [ ( "linprog.simplex",
      [ Alcotest.test_case "basic 2d" `Quick test_basic_2d;
        Alcotest.test_case "equality" `Quick test_equality_constraint;
        Alcotest.test_case "ge constraint" `Quick test_ge_constraint;
        Alcotest.test_case "unbounded" `Quick test_unbounded;
        Alcotest.test_case "infeasible" `Quick test_infeasible;
        Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
        Alcotest.test_case "degenerate vertex" `Quick test_degenerate;
        Alcotest.test_case "redundant equalities" `Quick test_redundant_equalities;
        Alcotest.test_case "zero objective" `Quick test_zero_objective;
        Alcotest.test_case "feasibility probe" `Quick test_feasible;
        Alcotest.test_case "klee-minty 3" `Quick test_klee_minty_3;
        Alcotest.test_case "phase-duration LP shape" `Quick test_phase_duration_shape;
      ] );
    ( "linprog.solver",
      [ Alcotest.test_case "120-system basis-carry stress" `Quick
          test_solver_stress_basis_carry;
        Alcotest.test_case "warm reoptimize_into allocates zero words" `Quick
          test_reoptimize_into_zero_alloc;
        Alcotest.test_case "kernel work published by every entry point"
          `Quick test_kernel_counts_flushed;
        Alcotest.test_case "optimal carried basis builds no tableau" `Quick
          test_factored_optimal_no_tableau;
        Alcotest.test_case "infeasible carried basis runs phase 1" `Quick
          test_factored_infeasible_runs_phase1;
        Alcotest.test_case "non-optimal carried basis pivots as the tableau"
          `Quick test_factored_not_optimal_pivots;
        Alcotest.test_case "tiny first carried column runs phase 1" `Quick
          test_factored_partial_pivot_singular;
      ] );
    ("linprog.properties", qcheck_cases);
  ]
