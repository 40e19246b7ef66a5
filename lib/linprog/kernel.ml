(* Flat row-major simplex tableau kernel.

   One contiguous [floatarray] holds the whole m x (ncols + 1) tableau
   (the right-hand side lives in the last column of each row), so the
   elimination, pricing and ratio-test loops walk a single unboxed
   buffer with [unsafe_get]/[unsafe_set] over precomputed row offsets —
   no per-row pointer chase, no bounds checks, and no allocation
   anywhere in the hot operations. The kernel owns every scratch buffer
   a phase needs ([reduced], [cost], [basis], [allowed]); [resize]
   grows them geometrically-never-shrinks, so reloading a system of the
   same shape touches no allocator at all.

   The arithmetic is kept operation-for-operation identical to the
   historical nested-array implementation ([Simplex]'s and [Solver]'s
   pre-flat tableaux): eliminations scale then subtract in the same
   order, and reduced costs are accumulated per column in ascending row
   order, so pivot sequences — and therefore every figure and solver
   output — are bit-for-bit unchanged.

   Safety invariants for the unsafe accesses (maintained by [resize]):
     length a       >= nrows * stride,   stride = ncols + 1
     length basis   >= nrows
     length allowed >= ncols
     length reduced >= ncols,   length cost >= ncols
   and every [row]/[col] argument comes from a loop bounded by
   [nrows]/[ncols]. *)

type t = {
  mutable nrows : int;        (* active rows; rows may be dropped *)
  mutable ncols : int;        (* structural + slack + artificial *)
  mutable a : floatarray;     (* row-major tableau, nrows x (ncols + 1) *)
  mutable basis : int array;  (* basis.(i): column basic in row i *)
  mutable allowed : bool array; (* columns permitted to enter *)
  mutable reduced : floatarray; (* reduced-cost scratch *)
  mutable cost : floatarray;    (* current objective over all columns *)
  mutable degenerate : bool;  (* last ratio test hit a zero ratio *)
  mutable row_ops : int;      (* element updates since [flush_counts] *)
}

(* The row stride: the right-hand side sits at column [ncols]. Derived
   rather than stored, which keeps the record at nine fields: [Simplex]
   builds one per solve. *)
let[@inline] stride t = t.ncols + 1

let eps = 1e-9

(* Element updates spent in elimination loops (each is one multiply +
   one subtract, or one divide on the pivot row): a deterministic flops
   proxy for the kernel. Eliminations add them up in [row_ops]; the
   solver entry points publish the total once per call through
   [flush_counts], so no elimination pays an atomic. *)
let row_ops_counter = Telemetry.Metrics.counter "linprog.kernel_row_ops"

let create ~nrows ~ncols =
  let stride = ncols + 1 in
  { nrows;
    ncols;
    a = Float.Array.make (max 1 (nrows * stride)) 0.;
    basis = Array.make (max 1 nrows) 0;
    allowed = Array.make (max 1 ncols) true;
    reduced = Float.Array.make (max 1 ncols) 0.;
    cost = Float.Array.make (max 1 ncols) 0.;
    degenerate = false;
    row_ops = 0;
  }

(* Set the active geometry, growing backing buffers only when the new
   system does not fit the current capacity. Contents are unspecified
   afterwards — callers reload via [load] or [set]. *)
let resize t ~nrows ~ncols =
  let stride = ncols + 1 in
  if nrows * stride > Float.Array.length t.a then
    t.a <- Float.Array.make (nrows * stride) 0.;
  if nrows > Array.length t.basis then t.basis <- Array.make nrows 0;
  if ncols > Array.length t.allowed then begin
    t.allowed <- Array.make ncols true;
    t.reduced <- Float.Array.make ncols 0.;
    t.cost <- Float.Array.make ncols 0.
  end;
  t.nrows <- nrows;
  t.ncols <- ncols

let nrows t = t.nrows
let ncols t = t.ncols

let set t i j v = Float.Array.unsafe_set t.a ((i * stride t) + j) v
let rhs t i = Float.Array.unsafe_get t.a ((i * stride t) + t.ncols)

let basis t i = Array.unsafe_get t.basis i
let set_basis t i b = Array.unsafe_set t.basis i b

let allow_all t = Array.fill t.allowed 0 t.ncols true

(* Load a prebuilt tableau image: one blit for the cells, one for the
   starting basis. Callers outside this module would otherwise fill
   cell by cell through [set], boxing a float per cell under
   [-opaque]. *)
let load t ~nrows ~ncols ~cells ~basis =
  resize t ~nrows ~ncols;
  Float.Array.blit cells 0 t.a 0 (nrows * stride t);
  Array.blit basis 0 t.basis 0 nrows;
  allow_all t

let bar_from t j0 =
  for j = j0 to t.ncols - 1 do
    Array.unsafe_set t.allowed j false
  done

(* Load objective coefficients: the first [n] columns from [c], the
   rest (slacks, artificials) zero. *)
let load_cost t c n =
  Float.Array.fill t.cost 0 t.ncols 0.;
  for j = 0 to n - 1 do
    Float.Array.unsafe_set t.cost j (Array.unsafe_get c j)
  done

(* Phase-1 objective: maximise -(sum of artificial columns). *)
let load_phase1_cost t ~first_artificial =
  Float.Array.fill t.cost 0 t.ncols 0.;
  for j = first_artificial to t.ncols - 1 do
    Float.Array.unsafe_set t.cost j (-1.)
  done

(* r_j = c_j - c_B . B^-1 A_j for every column, into [reduced].
   Row-major accumulation: initialise with c_j, then stream each row
   once, subtracting cb * a(i, j) across the row. Per column this
   performs the identical operation sequence (ascending i) as the
   column-major reference loop, so the results are bit-identical —
   while touching the tableau in cache order. Disallowed columns price
   to -inf so they can never enter. *)
let compute_reduced t =
  let n = t.ncols in
  let red = t.reduced and cost = t.cost and a = t.a in
  for j = 0 to n - 1 do
    Float.Array.unsafe_set red j (Float.Array.unsafe_get cost j)
  done;
  for i = 0 to t.nrows - 1 do
    let cb = Float.Array.unsafe_get cost (Array.unsafe_get t.basis i) in
    if cb <> 0. then begin
      let off = i * stride t in
      for j = 0 to n - 1 do
        Float.Array.unsafe_set red j
          (Float.Array.unsafe_get red j
          -. (cb *. Float.Array.unsafe_get a (off + j)))
      done
    end
  done;
  for j = 0 to n - 1 do
    if not (Array.unsafe_get t.allowed j) then
      Float.Array.unsafe_set red j neg_infinity
  done

(* Bland: lowest-index column with positive reduced cost; -1 = optimal. *)
let price_bland t =
  let n = t.ncols and red = t.reduced in
  let j = ref 0 and found = ref (-1) in
  while !found < 0 && !j < n do
    if Float.Array.unsafe_get red !j > eps then found := !j;
    incr j
  done;
  !found

(* Dantzig: most positive reduced cost, lowest index on ties. *)
let price_dantzig t =
  let n = t.ncols and red = t.reduced in
  let best = ref eps and entering = ref (-1) in
  for j = 0 to n - 1 do
    let r = Float.Array.unsafe_get red j in
    if r > !best then begin
      best := r;
      entering := j
    end
  done;
  !entering

(* Minimum-ratio leaving row for an entering [col]; lowest basis index
   among ties; -1 = unbounded. Sets [degenerate] when the winning ratio
   is (numerically) zero. *)
let ratio_leave t ~col =
  let a = t.a and stride = stride t and rhs_col = t.ncols in
  let leave = ref (-1) and best = ref infinity in
  for i = 0 to t.nrows - 1 do
    let off = i * stride in
    let ai = Float.Array.unsafe_get a (off + col) in
    if ai > eps then begin
      let ratio = Float.Array.unsafe_get a (off + rhs_col) /. ai in
      if
        ratio < !best -. eps
        || (abs_float (ratio -. !best) <= eps
           && !leave >= 0
           && Array.unsafe_get t.basis i < Array.unsafe_get t.basis !leave)
      then begin
        best := ratio;
        leave := i
      end
    end
  done;
  t.degenerate <- !leave >= 0 && !best <= eps;
  !leave

let degenerate t = t.degenerate

(* Gauss-Jordan elimination on the pivot (row, col): scale the pivot
   row, subtract it from every other row with a non-zero entry in
   [col], and make [col] basic in [row]. Identical arithmetic (and
   operation order) to the historical nested implementation. *)
let eliminate t ~row ~col =
  let a = t.a and stride = stride t and ncols = t.ncols in
  let roff = row * stride in
  let p = Float.Array.unsafe_get a (roff + col) in
  for j = 0 to ncols do
    Float.Array.unsafe_set a (roff + j)
      (Float.Array.unsafe_get a (roff + j) /. p)
  done;
  let touched = ref 1 in
  for i = 0 to t.nrows - 1 do
    if i <> row then begin
      let off = i * stride in
      let factor = Float.Array.unsafe_get a (off + col) in
      if factor <> 0. then begin
        incr touched;
        for j = 0 to ncols do
          Float.Array.unsafe_set a (off + j)
            (Float.Array.unsafe_get a (off + j)
            -. (factor *. Float.Array.unsafe_get a (roff + j)))
        done
      end
    end
  done;
  Array.unsafe_set t.basis row col;
  t.row_ops <- t.row_ops + (!touched * stride)

let flush_counts t =
  if t.row_ops <> 0 then begin
    Telemetry.Metrics.add row_ops_counter t.row_ops;
    t.row_ops <- 0
  end

(* Objective of the current basic solution. Inlined into its callers
   below so the accumulator stays unboxed; exported only through
   [objective_into] (a float return would box across the module
   boundary, and this runs on the allocation-free warm path) and the
   boxing [objective]. *)
let[@inline] objective_value t =
  let a = t.a and cost = t.cost and stride = stride t and rhs_col = t.ncols in
  let acc = ref 0. in
  for i = 0 to t.nrows - 1 do
    let cb = Float.Array.unsafe_get cost (Array.unsafe_get t.basis i) in
    if cb <> 0. then
      acc := !acc +. (cb *. Float.Array.unsafe_get a ((i * stride) + rhs_col))
  done;
  !acc

let objective_into t dst at = Array.unsafe_set dst at (objective_value t)

let objective t = objective_value t

(* Basic solution over the structural variables, into a caller-owned
   buffer. Every structural variable is non-negative, so a basic value
   in [-eps, 0] is elimination round-off (a carried basis is accepted
   with right-hand sides down to -[rhs_tol]): it is reported as 0. That
   also normalises IEEE negative zeros, so downstream rendering never
   prints "-0", and a phase duration is never negative. *)
let solution_into t ~nvars ~x =
  Array.fill x 0 nvars 0.;
  let a = t.a and stride = stride t and rhs_col = t.ncols in
  for i = 0 to t.nrows - 1 do
    let b = Array.unsafe_get t.basis i in
    if b < nvars then begin
      let v = Float.Array.unsafe_get a ((i * stride) + rhs_col) in
      Array.unsafe_set x b (if v <= 0. && v >= -.eps then 0. else v)
    end
  done

(* The solve-to-solve checks of [Solver] live here, next to the
   tableau they walk: under [-opaque] an element read from another
   module is an out-of-line call returning a boxed float, which would
   put heap blocks on the path of every template load. *)

(* Pivot elements this small are treated as singular when
   refactorising a carried basis. *)
let singular_tol = 1e-7

(* Refactorise a carried basis against freshly loaded rows: classic
   Gauss-Jordan with full pivoting restricted to the carried columns
   [carried.(0 .. nrows-1)] (permuted in place as they are consumed).
   Row eliminations here are basis factorisation, not simplex
   iterations — they count into [linprog.refactor_eliminations] (one
   add per call, at the end), never [linprog.pivots]. Returns false on
   a (near-)singular basis. *)
let refactor_counter = Telemetry.Metrics.counter "linprog.refactor_eliminations"

let refactor t ~carried ~row_done =
  let m = t.nrows and a = t.a and stride = stride t in
  Array.fill row_done 0 m false;
  let ok = ref true and step = ref 0 in
  while !ok && !step < m do
    (* unconsumed rows: [row_done] is false; unconsumed carried
       columns: slots [step .. m-1] of [carried] *)
    let best = ref singular_tol and br = ref (-1) and bc = ref (-1) in
    for i = 0 to m - 1 do
      if not (Array.unsafe_get row_done i) then begin
        let off = i * stride in
        for c = !step to m - 1 do
          let v =
            abs_float (Float.Array.unsafe_get a (off + Array.unsafe_get carried c))
          in
          if v > !best then begin
            best := v;
            br := i;
            bc := c
          end
        done
      end
    done;
    if !br < 0 then ok := false
    else begin
      let col = Array.unsafe_get carried !bc in
      eliminate t ~row:!br ~col;
      Array.unsafe_set row_done !br true;
      Array.unsafe_set carried !bc (Array.unsafe_get carried !step);
      Array.unsafe_set carried !step col;
      incr step
    end
  done;
  Telemetry.Metrics.add refactor_counter !step;
  !ok

(* Below this a refactorised right-hand side is infeasible rather than
   merely degenerate noise. *)
let rhs_tol = 1e-10

let rhs_feasible t =
  let a = t.a and stride = stride t and rhs_col = t.ncols in
  let ok = ref true and i = ref 0 in
  while !ok && !i < t.nrows do
    if Float.Array.unsafe_get a ((!i * stride) + rhs_col) < -.rhs_tol then
      ok := false;
    incr i
  done;
  !ok

(* Phase 1 ended with artificial mass left over. *)
let phase1_infeasible t = objective_value t < -.eps

(* The first column below [below] with a usable entry in [row]: where a
   basic artificial is pivoted out after phase 1; -1 = redundant row. *)
let pivot_col t ~row ~below =
  let a = t.a and off = row * stride t in
  let col = ref (-1) and j = ref 0 in
  while !col < 0 && !j < below do
    if abs_float (Float.Array.unsafe_get a (off + !j)) > eps then col := !j;
    incr j
  done;
  !col

(* Drop redundant row [i] by moving the last active row into its slot
   (value copy — same observable effect as the old row-pointer swap). *)
let drop_row t i =
  let last = t.nrows - 1 in
  if i < last then begin
    let stride = stride t in
    Float.Array.blit t.a (last * stride) t.a (i * stride) stride;
    t.basis.(i) <- t.basis.(last)
  end;
  t.nrows <- last
