type relation = Le | Ge | Eq

type constr = { coeffs : float array; relation : relation; rhs : float }

type solution = { x : float array; objective : float }

type outcome = Optimal of solution | Unbounded | Infeasible

let constr coeffs relation rhs = { coeffs; relation; rhs }

(* The tableau is a flat row-major [Kernel.t] (rhs in the last column;
   [Kernel.basis] tracks the column basic in each row, and artificials
   are disallowed in phase 2 via [Kernel.bar_from]). Each call builds a
   fresh kernel and throws it away — all state stays per-call, so the
   purity/re-entrancy contract documented in docs/ENGINE.md is
   unaffected — but within a call nothing allocates per iteration any
   more (the reduced-cost scratch lives in the kernel; the historical
   implementation rebuilt it with [Array.init] every pivot). *)
type tableau = {
  k : Kernel.t;
  mutable pivots : int;       (* pivot operations over both phases *)
}

(* Telemetry only observes (counters). *)
let solves_counter = Telemetry.Metrics.counter "linprog.solves"
let pivots_counter = Telemetry.Metrics.counter "linprog.pivots"

(* Bytes allocated inside LP solves while Telemetry.Resource is
   enabled (shared with the warm-start Solver's entry points);
   [linprog.alloc_bytes / linprog.solves] is allocations per solve. *)
let alloc_bytes_counter = Telemetry.Metrics.counter "linprog.alloc_bytes"

let record_solve t =
  Telemetry.Metrics.incr solves_counter;
  Telemetry.Metrics.add pivots_counter t.pivots;
  Kernel.flush_counts t.k

let pivot t ~row ~col =
  t.pivots <- t.pivots + 1;
  Kernel.eliminate t.k ~row ~col

(* One simplex phase: maximise the kernel's loaded cost from the
   current basic feasible solution. Bland's rule: entering =
   lowest-index column with positive reduced cost; leaving = lowest
   basis index among ratio-test ties. *)
let run_phase t =
  let rec loop iter =
    if iter > 10_000 then failwith "Simplex: iteration limit exceeded";
    Kernel.compute_reduced t.k;
    let entering = Kernel.price_bland t.k in
    if entering < 0 then `Optimal
    else begin
      let leave = Kernel.ratio_leave t.k ~col:entering in
      if leave < 0 then `Unbounded
      else begin
        pivot t ~row:leave ~col:entering;
        loop (iter + 1)
      end
    end
  in
  loop 0

(* Remove artificial variables from the basis after phase 1. A basic
   artificial sits at value zero; pivot it out on any eligible column, or
   drop the (redundant) row when no such column exists. *)
let drive_out_artificials t ~first_artificial =
  let k = t.k in
  let i = ref 0 in
  while !i < Kernel.nrows k do
    if Kernel.basis k !i >= first_artificial then begin
      let col = Kernel.pivot_col k ~row:!i ~below:first_artificial in
      if col >= 0 then begin
        pivot t ~row:!i ~col;
        incr i
      end
      else Kernel.drop_row k !i (* redundant constraint *)
    end
    else incr i
  done

let build_tableau ~nvars ~constrs =
  List.iter
    (fun c ->
      if Array.length c.coeffs <> nvars then
        invalid_arg "Simplex: constraint arity mismatch")
    constrs;
  let m = List.length constrs in
  (* normalise right-hand sides to be non-negative *)
  let normalised =
    List.map
      (fun c ->
        if c.rhs < 0. then
          { coeffs = Array.map (fun a -> -.a) c.coeffs;
            relation =
              (match c.relation with Le -> Ge | Ge -> Le | Eq -> Eq);
            rhs = -.c.rhs;
          }
        else c)
      constrs
  in
  let n_slack =
    List.length
      (List.filter (fun c -> c.relation <> Eq) normalised)
  in
  let first_slack = nvars in
  let first_artificial = nvars + n_slack in
  (* every row receives an artificial column: Le rows start with their
     slack basic instead, so the artificial is only created when needed *)
  let n_art =
    List.length (List.filter (fun c -> c.relation <> Le) normalised)
  in
  let ncols = first_artificial + n_art in
  let k = Kernel.create ~nrows:m ~ncols in
  let slack = ref first_slack and art = ref first_artificial in
  List.iteri
    (fun i c ->
      for j = 0 to nvars - 1 do
        Kernel.set k i j c.coeffs.(j)
      done;
      Kernel.set k i ncols c.rhs;
      (match c.relation with
      | Le ->
        Kernel.set k i !slack 1.;
        Kernel.set_basis k i !slack;
        incr slack
      | Ge ->
        Kernel.set k i !slack (-1.);
        incr slack;
        Kernel.set k i !art 1.;
        Kernel.set_basis k i !art;
        incr art
      | Eq ->
        Kernel.set k i !art 1.;
        Kernel.set_basis k i !art;
        incr art))
    normalised;
  ({ k; pivots = 0 }, first_artificial)

let maximize_impl ~c ~constrs =
  let nvars = Array.length c in
  let t, first_artificial = build_tableau ~nvars ~constrs in
  (* phase 1: maximise -(sum of artificials) *)
  Kernel.load_phase1_cost t.k ~first_artificial;
  (match run_phase t with
  | `Unbounded -> assert false (* phase-1 objective is bounded above by 0 *)
  | `Optimal -> ());
  if Kernel.phase1_infeasible t.k then begin
    record_solve t;
    Infeasible
  end
  else begin
    drive_out_artificials t ~first_artificial;
    Kernel.bar_from t.k first_artificial;
    Kernel.load_cost t.k c nvars;
    let outcome =
      match run_phase t with
      | `Unbounded -> Unbounded
      | `Optimal ->
        let k = t.k in
        let x = Array.make nvars 0. in
        for i = 0 to Kernel.nrows k - 1 do
          let b = Kernel.basis k i in
          if b < nvars then x.(b) <- Kernel.rhs k i
        done;
        Optimal { x; objective = Kernel.objective k }
    in
    record_solve t;
    outcome
  end

(* Allocation-accounting wrapper; the disabled path is the plain call —
   one atomic load, no closure. *)
let maximize ~c ~constrs =
  if not (Telemetry.Resource.enabled ()) then maximize_impl ~c ~constrs
  else begin
    let b0 = Telemetry.Resource.alloc_mark_begin () in
    Fun.protect
      ~finally:(fun () ->
        Telemetry.Metrics.add alloc_bytes_counter
          (int_of_float
             (Float.max 0. (Telemetry.Resource.alloc_mark_end () -. b0))))
      (fun () -> maximize_impl ~c ~constrs)
  end

let minimize ~c ~constrs =
  match maximize ~c:(Array.map (fun v -> -.v) c) ~constrs with
  | Optimal { x; objective } -> Optimal { x; objective = -.objective }
  | (Unbounded | Infeasible) as o -> o

let feasible ~constrs ~nvars =
  match maximize ~c:(Array.make nvars 0.) ~constrs with
  | Optimal _ -> true
  | Unbounded -> true
  | Infeasible -> false
