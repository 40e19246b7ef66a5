(* The two-phase simplex engine, warm-started across solves.

   A [Solver.t] owns its tableau (and every scratch buffer) for as long
   as the caller keeps it: the constraint system is loaded once, phase 1
   establishes a feasible basis once, and each [reoptimize ~c] restarts
   phase 2 from the basis the previous solve ended on — feasibility is
   invariant under objective changes, so phase 1 never re-runs on a
   pure objective sweep. [rebuild] swaps in a new constraint system in
   place; when the new system has the same structural shape the old
   optimal basis is factorised against the fresh coefficients and, if
   it verifies feasible, phase 1 is skipped there too (and the tableau
   is built only if a solve needs to pivot). Both go through
   an [image] — the loaded tableau of a system, before any pivot — so a
   caller that solves many systems of one fixed structure can build
   the image once, patch its coefficient cells and [load] it: one blit
   and the same basis carry, with no constraint list at all.

   The numeric core is [Kernel]: a single flat row-major [floatarray]
   tableau with allocation-free elimination/pricing/ratio loops. On top
   of it this module keeps only the solve-to-solve state machine
   (phases, basis carry, telemetry). [reoptimize] preserves the
   original allocating API; [reoptimize_into] is the zero-allocation
   variant — solution and objective land in a caller-owned buffer and a
   warm solve allocates zero words, which the [linprog.alloc_bytes]
   budget in `bidir check` pins.

   Pricing is Dantzig's rule (most positive reduced cost) for speed,
   with an automatic, sticky fallback to Bland's rule after a run of
   degenerate pivots — Bland cannot cycle, so termination is
   unconditional.

   A solver is deliberately NOT re-entrant: it mutates itself on every
   call. Give each domain its own instance (the rate-region layer keys
   instances per domain via [Domain.DLS]); see docs/ENGINE.md. *)

type relation = Simplex.relation = Le | Ge | Eq

let solves_counter = Telemetry.Metrics.counter "linprog.solves"
let pivots_counter = Telemetry.Metrics.counter "linprog.pivots"

(* Warm-start telemetry: solves that started from a previously optimal
   basis and solves where that let us skip phase 1 entirely. The row
   eliminations spent rebuilding carried bases in the tableau (basis
   factorisation work, not simplex iterations) are counted by the
   kernel into [linprog.refactor_eliminations], so the pivot totals
   stay honest. *)
let warm_solves_counter = Telemetry.Metrics.counter "linprog.warm_solves"
let phase1_skipped_counter = Telemetry.Metrics.counter "linprog.phase1_skipped"

(* Solves that ended on a factored carried basis, with no tableau built
   for the loaded system (see [load_impl]). *)
let factored_solves_counter = Telemetry.Metrics.counter "linprog.factored_solves"

(* Allocation inside LP entry points while Telemetry.Resource is
   enabled, between [Resource.alloc_mark_begin]/[_end] marks;
   [linprog.alloc_bytes / linprog.solves] is the per-solve allocation
   footprint. *)
let alloc_bytes_counter = Telemetry.Metrics.counter "linprog.alloc_bytes"

let record_alloc b0 =
  Telemetry.Metrics.add alloc_bytes_counter
    (int_of_float (Float.max 0. (Telemetry.Resource.alloc_mark_end () -. b0)))

type status = Sat | Unsat

type verdict = Optimal | Unbounded | Infeasible

(* A loaded system before any pivot: the row-major tableau and the
   standard phase-1 basis [fill] builds, with the geometry and per-row
   relation tags the basis carry compares. Never mutated after [image]
   returns, except through [image_cells] by its owner. *)
type image = {
  im_nvars : int;
  im_m : int;
  im_first_artificial : int;
  im_ncols : int;
  im_shape : int array;    (* per-row normalised relation tag *)
  im_basis : int array;    (* starting basis: slack or artificial *)
  im_cells : floatarray;   (* m x (ncols + 1), rhs last *)
}

type t = {
  nvars : int;
  (* geometry of the currently loaded (normalised) system *)
  mutable m : int;                 (* constraint rows as loaded *)
  mutable first_artificial : int;
  mutable shape : int array;       (* the loaded image's relation tags *)
  mutable im : image;              (* the loaded image *)
  (* the flat tableau + all pricing scratch (grown on demand) *)
  k : Kernel.t;
  f : Kernel.factor;               (* the carried basis, factored *)
  (* solve-to-solve state *)
  mutable status : status;
  mutable factored : bool;         (* basis in [f]; the tableau is stale *)
  mutable pending_pivots : int;    (* pivots since the last recorded solve *)
  mutable recorded_pivots : int;   (* pivots of every solve recorded so far *)
  mutable warm_next : bool;        (* next solve starts from a prior basis *)
  mutable skip1_next : bool;       (* ... and phase 1 was skipped for it *)
}

let nvars t = t.nvars

let pivots t = t.recorded_pivots

(* ------------------------------------------------------------------ *)
(* Tableau construction                                                *)
(* ------------------------------------------------------------------ *)

let rel_tag = function Le -> 0 | Ge -> 1 | Eq -> 2

let normalise nvars constrs =
  List.map
    (fun (c : Simplex.constr) ->
      if Array.length c.Simplex.coeffs <> nvars then
        invalid_arg "Linprog.Solver: constraint arity mismatch";
      if c.Simplex.rhs < 0. then
        { Simplex.coeffs = Array.map (fun a -> -.a) c.Simplex.coeffs;
          relation =
            (match c.Simplex.relation with Le -> Ge | Ge -> Le | Eq -> Eq);
          rhs = -.c.Simplex.rhs;
        }
      else c)
    constrs

(* Every row starts from the standard phase-1 basis: its slack for
   [Le], its artificial for [Ge] (behind a surplus slack) and [Eq]. *)
let image ~nvars ~constrs =
  if nvars <= 0 then invalid_arg "Linprog.Solver: nvars <= 0";
  let normalised = normalise nvars constrs in
  let m = List.length normalised in
  let count rel =
    List.length (List.filter (fun c -> c.Simplex.relation <> rel) normalised)
  in
  let first_artificial = nvars + count Eq in
  let ncols = first_artificial + count Le in
  let stride = ncols + 1 in
  let cells = Float.Array.make (m * stride) 0. in
  let shape = Array.make m 0 and basis = Array.make m 0 in
  let set i j v = Float.Array.set cells ((i * stride) + j) v in
  let slack = ref nvars and art = ref first_artificial in
  List.iteri
    (fun i (c : Simplex.constr) ->
      Array.iteri (set i) c.Simplex.coeffs;
      set i ncols c.Simplex.rhs;
      shape.(i) <- rel_tag c.Simplex.relation;
      (match c.Simplex.relation with
      | Le ->
        set i !slack 1.;
        basis.(i) <- !slack;
        incr slack
      | Ge ->
        set i !slack (-1.);
        incr slack;
        set i !art 1.;
        basis.(i) <- !art;
        incr art
      | Eq ->
        set i !art 1.;
        basis.(i) <- !art;
        incr art))
    normalised;
  { im_nvars = nvars;
    im_m = m;
    im_first_artificial = first_artificial;
    im_ncols = ncols;
    im_shape = shape;
    im_basis = basis;
    im_cells = cells;
  }

let copy_image im = { im with im_cells = Float.Array.copy im.im_cells }

let image_cells im = im.im_cells

(* (Re)load the kernel with [im], starting every row from the image's
   phase-1 basis. *)
let fill t im =
  Kernel.load t.k ~nrows:im.im_m ~ncols:im.im_ncols ~cells:im.im_cells
    ~basis:im.im_basis

(* ------------------------------------------------------------------ *)
(* Pivoting                                                            *)
(* ------------------------------------------------------------------ *)

let pivot t ~row ~col =
  t.pending_pivots <- t.pending_pivots + 1;
  Kernel.eliminate t.k ~row ~col

(* Consecutive degenerate pivots before pricing falls back to Bland. *)
let stall_limit = 20

(* One simplex phase from the current basis against the kernel's loaded
   cost. Entering column: Dantzig (largest reduced cost, lowest index on
   ties) until [stall_limit] consecutive degenerate pivots, then Bland
   (lowest eligible index) for the rest of the phase — Bland cannot
   cycle, so the phase terminates. Leaving row: minimum ratio, lowest
   basis index among ties. *)
(* Iterative (no local recursive closure: a closure plus the refs it
   captures would be the only heap blocks left on the warm path).
   State: 0 = running, 1 = optimal, 2 = unbounded. *)
let run_phase t =
  let k = t.k in
  let bland = ref false and stall = ref 0 in
  let state = ref 0 and iter = ref 0 in
  while !state = 0 do
    if !iter > 10_000 then failwith "Linprog.Solver: iteration limit exceeded";
    incr iter;
    Kernel.compute_reduced k;
    let entering =
      if !bland then Kernel.price_bland k else Kernel.price_dantzig k
    in
    if entering < 0 then state := 1
    else begin
      let leave = Kernel.ratio_leave k ~col:entering in
      if leave < 0 then state := 2
      else begin
        if Kernel.degenerate k then begin
          incr stall;
          if !stall > stall_limit then bland := true
        end
        else stall := 0;
        pivot t ~row:leave ~col:entering
      end
    end
  done;
  if !state = 1 then `Optimal else `Unbounded

let drive_out_artificials t =
  let k = t.k in
  let fa = t.first_artificial in
  let i = ref 0 in
  while !i < Kernel.nrows k do
    if Kernel.basis k !i >= fa then begin
      let col = Kernel.pivot_col k ~row:!i ~below:fa in
      if col >= 0 then begin
        pivot t ~row:!i ~col;
        incr i
      end
      else Kernel.drop_row k !i
    end
    else incr i
  done

(* Phase 1 from the standard artificial basis already loaded by [fill]:
   maximise -(sum of artificials), then drive surviving artificials out
   of the basis and bar them from re-entering. *)
let phase1 t =
  Kernel.load_phase1_cost t.k ~first_artificial:t.first_artificial;
  (match run_phase t with
  | `Unbounded -> assert false (* phase-1 objective is bounded above by 0 *)
  | `Optimal -> ());
  if Kernel.phase1_infeasible t.k then t.status <- Unsat
  else begin
    drive_out_artificials t;
    Kernel.bar_from t.k t.first_artificial;
    t.status <- Sat
  end

(* ------------------------------------------------------------------ *)
(* Construction and in-place rebuild                                   *)
(* ------------------------------------------------------------------ *)

let of_image_impl im =
  let m = im.im_m in
  let t =
    { nvars = im.im_nvars;
      m;
      first_artificial = im.im_first_artificial;
      shape = im.im_shape;
      im;
      k = Kernel.create ~nrows:m ~ncols:im.im_ncols;
      f = Kernel.create_factor ();
      status = Sat;
      factored = false;
      pending_pivots = 0;
      recorded_pivots = 0;
      warm_next = false;
      skip1_next = false;
    }
  in
  fill t im;
  phase1 t;
  Kernel.flush_counts t.k;
  t

let same_shape a b =
  Array.length a = Array.length b
  &&
  let same = ref true in
  for i = 0 to Array.length a - 1 do
    if Array.unsafe_get a i <> Array.unsafe_get b i then same := false
  done;
  !same

(* Allocation-free when [im] has the loaded system's row count: the
   geometry check, the carry, the factorisation and the feasibility
   test all run over preallocated scratch. A carried basis that is
   feasible for the new image leaves the solver [factored]: the basis
   lives in [t.f], and the tableau still holds the previous system
   until a solve needs a pivot ([materialise]). *)
let load_impl t im =
  if im.im_nvars <> t.nvars then
    invalid_arg "Linprog.Solver.load: image arity mismatch";
  let m = im.im_m in
  (* a carried basis never contains artificials (drive-out guarantees
     it while nrows = m), so it is a carry candidate whenever the
     column layout is unchanged *)
  let carry =
    t.status = Sat
    && Kernel.nrows t.k = t.m
    && m = t.m
    && im.im_first_artificial = t.first_artificial
    && im.im_ncols = Kernel.ncols t.k
    && same_shape im.im_shape t.shape
  in
  t.m <- m;
  t.first_artificial <- im.im_first_artificial;
  t.shape <- im.im_shape;
  t.im <- im;
  t.factored <- carry && Kernel.factor_basis t.k t.f ~cells:im.im_cells;
  if t.factored then begin
    (* the carried basis is feasible for the new system: phase 1 is
       unnecessary *)
    t.status <- Sat;
    t.warm_next <- true;
    t.skip1_next <- true
  end
  else begin
    fill t im;
    phase1 t;
    t.warm_next <- false;
    t.skip1_next <- false
  end;
  Kernel.flush_counts t.k

(* Build the tableau of the loaded image at the factored basis, for a
   solve that has to pivot. *)
let materialise t =
  fill t t.im;
  Kernel.replay t.k t.f;
  Kernel.bar_from t.k t.first_artificial;
  t.factored <- false

(* ------------------------------------------------------------------ *)
(* Solving                                                             *)
(* ------------------------------------------------------------------ *)

(* Counters only, and the kernel's pending work: allocation-free, so
   recording rides inside the zero-alloc warm path. *)
let record_solve t =
  Telemetry.Metrics.incr solves_counter;
  Telemetry.Metrics.add pivots_counter t.pending_pivots;
  if t.warm_next then Telemetry.Metrics.incr warm_solves_counter;
  if t.skip1_next then Telemetry.Metrics.incr phase1_skipped_counter;
  if t.factored then Telemetry.Metrics.incr factored_solves_counter;
  Kernel.flush_counts t.k;
  t.recorded_pivots <- t.recorded_pivots + t.pending_pivots;
  t.pending_pivots <- 0;
  (* anything solved on this instance from here on starts from the
     basis the solve above ended on *)
  t.warm_next <- true;
  t.skip1_next <- true

(* IEEE negative zeros can surface in basic-variable values when a
   pivot path approaches a vertex coordinate from below; normalise them
   so downstream rendering never prints "-0". ([Kernel.solution_into]
   applies the same policy to the solution vector.) *)
let clean v = if v = 0. then 0. else v

let reoptimize_impl t ~c =
  if Array.length c <> t.nvars then
    invalid_arg "Linprog.Solver.reoptimize: objective arity mismatch";
  match t.status with
  | Unsat ->
    record_solve t;
    Simplex.Infeasible
  | Sat ->
    if t.factored then materialise t;
    Kernel.load_cost t.k c t.nvars;
    (match run_phase t with
    | `Unbounded ->
      record_solve t;
      Simplex.Unbounded
    | `Optimal ->
      let x = Array.make t.nvars 0. in
      Kernel.solution_into t.k ~nvars:t.nvars ~x;
      let objective = clean (Kernel.objective t.k) in
      record_solve t;
      Simplex.Optimal { Simplex.x; objective })

let finish_optimal t ~x =
  let v = Array.unsafe_get x t.nvars in
  if v = 0. then Array.unsafe_set x t.nvars 0.;
  record_solve t;
  Optimal

(* The zero-allocation warm path: same state machine as [reoptimize],
   but the solution lands in the caller-owned [x] (objective in
   [x.(nvars)]) and the verdict is a constant constructor — a warm
   solve allocates zero words, telemetry included. *)
let reoptimize_into_impl t ~c ~x =
  if Array.length c <> t.nvars then
    invalid_arg "Linprog.Solver.reoptimize_into: objective arity mismatch";
  if Array.length x < t.nvars + 1 then
    invalid_arg "Linprog.Solver.reoptimize_into: x must have nvars + 1 slots";
  match t.status with
  | Unsat ->
    record_solve t;
    Infeasible
  | Sat ->
    Kernel.load_cost t.k c t.nvars;
    if
      t.factored
      && Kernel.factored_optimal t.k t.f ~cells:t.im.im_cells
           ~below:t.first_artificial
    then begin
      Kernel.factored_solution_into t.k t.f ~nvars:t.nvars ~x;
      Kernel.factored_objective_into t.k t.f x t.nvars;
      finish_optimal t ~x
    end
    else begin
      if t.factored then materialise t;
      match run_phase t with
      | `Unbounded ->
        record_solve t;
        Unbounded
      | `Optimal ->
        Kernel.solution_into t.k ~nvars:t.nvars ~x;
        Kernel.objective_into t.k x t.nvars;
        finish_optimal t ~x
    end

(* Allocation-accounting wrapper for the cold entry points: the
   disabled path is the plain call — one atomic load. *)
let accounted f x =
  if not (Telemetry.Resource.enabled ()) then f x
  else begin
    let b0 = Telemetry.Resource.alloc_mark_begin () in
    Fun.protect ~finally:(fun () -> record_alloc b0) (fun () -> f x)
  end

let of_image im = accounted of_image_impl im

let create ~nvars ~constrs =
  accounted (fun () -> of_image_impl (image ~nvars ~constrs)) ()

let rebuild t ~constrs =
  accounted (fun () -> load_impl t (image ~nvars:t.nvars ~constrs)) ()

let reoptimize t ~c = accounted (fun c -> reoptimize_impl t ~c) c

(* Like [reoptimize_into] below: no [Fun.protect], so a template load
   stays allocation-free with accounting on. *)
let load t im =
  if not (Telemetry.Resource.enabled ()) then load_impl t im
  else begin
    let b0 = Telemetry.Resource.alloc_mark_begin () in
    load_impl t im;
    record_alloc b0
  end

(* No [Fun.protect] here: the two closures it would allocate are the
   difference between ~0 and ~60 bytes per accounted warm solve. The
   impl only raises on caller errors (arity), where losing one
   accounting delta is harmless. *)
let reoptimize_into t ~c ~x =
  if not (Telemetry.Resource.enabled ()) then reoptimize_into_impl t ~c ~x
  else begin
    let b0 = Telemetry.Resource.alloc_mark_begin () in
    let r = reoptimize_into_impl t ~c ~x in
    record_alloc b0;
    r
  end

let feasible t =
  let sat = t.status = Sat in
  record_solve t;
  sat
