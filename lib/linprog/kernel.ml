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
   historical nested-array implementation: eliminations scale then
   subtract in the same order, and reduced costs are accumulated per
   column in ascending row order, so pivot sequences — and therefore
   every figure and solver output — are bit-for-bit unchanged.

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

(* The row stride: the right-hand side sits at column [ncols]. *)
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
   afterwards — callers reload via [load]. *)
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

let basis t i = Array.unsafe_get t.basis i

let allow_all t = Array.fill t.allowed 0 t.ncols true

(* Load a prebuilt tableau image: one blit for the cells, one for the
   starting basis, so no float crosses the module boundary boxed under
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

(* ------------------------------------------------------------------ *)
(* Basis factor: a carried basis checked without a tableau             *)
(* ------------------------------------------------------------------ *)

(* Most carried bases are optimal for the next system, so its tableau
   is never needed. [factor_basis] runs Gauss-Jordan on the m x (m + 1)
   matrix [B | b] alone: the carried columns, in the row order the last
   system left them, and the right-hand side of the image. Step s
   pivots in carried column s on its largest unconsumed entry (partial
   pivoting: one column searched, no column swaps), with [eliminate]'s
   arithmetic. Elimination treats columns independently, so the steps
   replayed in the tableau compute every value bit for bit: the LP
   history does not depend on whether a tableau was built. The pivot
   rule is part of that history: its choices set the last bits of x_B,
   and root finders downstream take their steps from them. It records
   each step's pivot row, pivot value and non-zero row multipliers,
   which serve twice:
   - [factored_optimal] applies the steps' transposes to c_B for the
     duals y = B^-T c_B and prices the image's columns against them;
   - [replay] re-runs the recorded pivots on a fresh blit of the image,
     when a pivot is needed after all.

   Scratch is owned by the factor, not the kernel, and starts empty: a
   solver that never carries a basis never grows it. *)

type factor = {
  mutable fm : int;              (* basis order of the last factorisation *)
  mutable w : floatarray;        (* [B | b], m x (m + 1), eliminated;
                                    column c holds tableau column
                                    [pcol.(c)] *)
  mutable tval : floatarray;     (* the non-zero row multipliers of each
                                    step, step by step ... *)
  mutable trow : int array;      (* ... the rows they apply to ... *)
  mutable tend : int array;      (* ... and where each step's end *)
  mutable pval : floatarray;     (* each step's pivot value *)
  mutable prow : int array;      (* each step's pivot row *)
  mutable pcol : int array;      (* each step's pivot column (tableau) *)
  mutable row_done : bool array;
  mutable y : floatarray;        (* duals, by image row *)
}

let create_factor () =
  let none = Float.Array.create 0 in
  { fm = 0;
    w = none;
    tval = none;
    trow = [||];
    tend = [||];
    pval = none;
    prow = [||];
    pcol = [||];
    row_done = [||];
    y = none;
  }

(* Grow-never-shrink, like [resize]: a factorisation of the order of
   the last one allocates nothing. *)
let reserve f m =
  if m > Array.length f.prow then begin
    f.w <- Float.Array.make (m * (m + 1)) 0.;
    f.tval <- Float.Array.make (m * m) 0.;
    f.trow <- Array.make (m * m) 0;
    f.tend <- Array.make m 0;
    f.pval <- Float.Array.make m 0.;
    f.prow <- Array.make m 0;
    f.pcol <- Array.make m 0;
    f.row_done <- Array.make m false;
    f.y <- Float.Array.make m 0.
  end;
  f.fm <- m

(* Pivot elements this small are treated as singular when factoring a
   carried basis. *)
let singular_tol = 1e-7

(* Below this a factored right-hand side is infeasible rather than
   merely degenerate noise. *)
let rhs_tol = 1e-10

(* Factor the kernel's basis, carried from the last system, against the
   image [cells] (laid out with this kernel's geometry) by Gauss-Jordan
   with partial pivoting, one basic column per step in row order. The
   basis is rewritten to name, per row, the column a step made basic
   there; the tableau's cells are not touched. True when every step
   finds an unconsumed entry above [singular_tol] in its column and
   x_B >= -[rhs_tol]. *)
let factor_basis t f ~cells =
  let m = t.nrows and stride = stride t and rhs_col = t.ncols in
  reserve f m;
  let w = f.w and ws = m + 1 and pcol = f.pcol in
  Array.blit t.basis 0 pcol 0 m;
  for i = 0 to m - 1 do
    let off = i * stride and woff = i * ws in
    for c = 0 to m - 1 do
      Float.Array.unsafe_set w (woff + c)
        (Float.Array.unsafe_get cells (off + Array.unsafe_get pcol c))
    done;
    Float.Array.unsafe_set w (woff + m) (Float.Array.unsafe_get cells (off + rhs_col));
    Array.unsafe_set f.row_done i false
  done;
  let ok = ref true and s = ref 0 and nt = ref 0 in
  while !ok && !s < m do
    let step = !s in
    (* partial pivoting: the largest |entry| of column [step] among the
       unconsumed rows ([row_done] false), the lowest row on ties *)
    let best = ref singular_tol and br = ref (-1) in
    for i = 0 to m - 1 do
      if not (Array.unsafe_get f.row_done i) then begin
        let v = abs_float (Float.Array.unsafe_get w ((i * ws) + step)) in
        if v > !best then begin
          best := v;
          br := i
        end
      end
    done;
    if !br < 0 then ok := false
    else begin
      let row = !br in
      (* [eliminate]'s arithmetic on the unconsumed columns and b: the
         consumed ones are unit columns, zero in every row this step
         changes, so they would not move *)
      let roff = row * ws in
      let p = Float.Array.unsafe_get w (roff + step) in
      for j = step to m do
        Float.Array.unsafe_set w (roff + j) (Float.Array.unsafe_get w (roff + j) /. p)
      done;
      for i = 0 to m - 1 do
        let off = i * ws in
        let factor = Float.Array.unsafe_get w (off + step) in
        if factor <> 0. && i <> row then begin
          Array.unsafe_set f.trow !nt i;
          Float.Array.unsafe_set f.tval !nt factor;
          incr nt;
          for j = step to m do
            Float.Array.unsafe_set w (off + j)
              (Float.Array.unsafe_get w (off + j)
              -. (factor *. Float.Array.unsafe_get w (roff + j)))
          done
        end
      done;
      Array.unsafe_set f.tend step !nt;
      Float.Array.unsafe_set f.pval step p;
      Array.unsafe_set f.prow step row;
      Array.unsafe_set t.basis row (Array.unsafe_get pcol step);
      Array.unsafe_set f.row_done row true;
      incr s
    end
  done;
  let i = ref 0 in
  while !ok && !i < m do
    if Float.Array.unsafe_get w ((!i * ws) + m) < -.rhs_tol then ok := false;
    incr i
  done;
  !ok

(* Whether the factored basis is optimal for the loaded cost: no column
   below [below] (the columns allowed to enter) prices above [eps].
   The duals come from c_B run back through the recorded steps:
   y^T = c_B^T E_m ... E_1, where step s scaled its pivot row r by 1/p
   and then subtracted f_i times row r from each row i, so y_r becomes
   (y_r - sum_i y_i f_i) / p. Basic columns price to zero and are
   skipped. *)
let factored_optimal t f ~cells ~below =
  let m = f.fm and y = f.y and cost = t.cost in
  for i = 0 to m - 1 do
    Float.Array.unsafe_set y i (Float.Array.unsafe_get cost (Array.unsafe_get t.basis i))
  done;
  for s = m - 1 downto 0 do
    let r = Array.unsafe_get f.prow s in
    let acc = ref (Float.Array.unsafe_get y r) in
    for e = (if s = 0 then 0 else Array.unsafe_get f.tend (s - 1))
        to Array.unsafe_get f.tend s - 1 do
      acc :=
        !acc
        -. (Float.Array.unsafe_get y (Array.unsafe_get f.trow e)
           *. Float.Array.unsafe_get f.tval e)
    done;
    Float.Array.unsafe_set y r (!acc /. Float.Array.unsafe_get f.pval s)
  done;
  let red = t.reduced and stride = stride t in
  for j = 0 to below - 1 do
    Float.Array.unsafe_set red j (Float.Array.unsafe_get cost j)
  done;
  for i = 0 to m - 1 do
    let yi = Float.Array.unsafe_get y i in
    if yi <> 0. then begin
      let off = i * stride in
      for j = 0 to below - 1 do
        Float.Array.unsafe_set red j
          (Float.Array.unsafe_get red j
          -. (yi *. Float.Array.unsafe_get cells (off + j)))
      done
    end
  done;
  for i = 0 to m - 1 do
    let b = Array.unsafe_get t.basis i in
    if b < below then Float.Array.unsafe_set red b 0.
  done;
  let optimal = ref true and j = ref 0 in
  while !optimal && !j < below do
    if Float.Array.unsafe_get red !j > eps then optimal := false;
    incr j
  done;
  !optimal

(* [solution_into] and [objective_into] for the factored basis: the
   right-hand side column of [B | b] is the tableau's, bit for bit. *)
let factored_solution_into t f ~nvars ~x =
  Array.fill x 0 nvars 0.;
  let w = f.w and ws = f.fm + 1 in
  for i = 0 to f.fm - 1 do
    let b = Array.unsafe_get t.basis i in
    if b < nvars then begin
      let v = Float.Array.unsafe_get w ((i * ws) + f.fm) in
      Array.unsafe_set x b (if v <= 0. && v >= -.eps then 0. else v)
    end
  done

let factored_objective_into t f dst at =
  let w = f.w and ws = f.fm + 1 and cost = t.cost in
  let acc = ref 0. in
  for i = 0 to f.fm - 1 do
    let cb = Float.Array.unsafe_get cost (Array.unsafe_get t.basis i) in
    if cb <> 0. then acc := !acc +. (cb *. Float.Array.unsafe_get w ((i * ws) + f.fm))
  done;
  Array.unsafe_set dst at !acc

(* Basis factorisation steps performed in the tableau, not simplex
   iterations: they count into [linprog.refactor_eliminations] (one add
   per call), never [linprog.pivots]. *)
let refactor_counter = Telemetry.Metrics.counter "linprog.refactor_eliminations"

(* Re-run the factor's pivots on a freshly loaded tableau of the same
   image, making the factored basis the tableau's. *)
let replay t f =
  for s = 0 to f.fm - 1 do
    eliminate t ~row:(Array.unsafe_get f.prow s) ~col:(Array.unsafe_get f.pcol s)
  done;
  Telemetry.Metrics.add refactor_counter f.fm

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
