(* A reference LP solver for the tests: exhaustive basis enumeration.
   It reads the [Linprog.Simplex] vocabulary types and nothing else of
   the library — no [Kernel], no [Solver] — so a test that agrees with
   it checks the engine against independent arithmetic. Exponential in
   the variable count: meant for systems over at most 6 variables. *)

let dot a x =
  let s = ref 0. in
  Array.iteri (fun i ai -> s := !s +. (ai *. x.(i))) a;
  !s

(* Round-off allowance for a row at [x]: 1e-9, plus 1e-12 of the row's
   terms (the boxed vertices of [maximize] have coordinates near
   [box]). *)
let tolerance (c : Linprog.Simplex.constr) x =
  let terms = ref (abs_float c.rhs) in
  Array.iteri (fun i ai -> terms := !terms +. abs_float (ai *. x.(i))) c.coeffs;
  1e-9 +. (1e-12 *. !terms)

let satisfies x (c : Linprog.Simplex.constr) =
  let v = dot c.coeffs x and tol = tolerance c x in
  match c.relation with
  | Linprog.Simplex.Le -> v <= c.rhs +. tol
  | Linprog.Simplex.Ge -> v >= c.rhs -. tol
  | Linprog.Simplex.Eq -> abs_float (v -. c.rhs) <= tol

(* A maximal linearly independent subset of [rows], in order: each row
   is reduced against the rows kept before it and kept when something
   above 1e-9 survives. *)
let independent rows =
  let kept = ref [] in
  List.filter
    (fun (c : Linprog.Simplex.constr) ->
      let v = Array.copy c.coeffs in
      List.iter
        (fun (p, u) ->
          let f = v.(p) /. u.(p) in
          Array.iteri (fun j uj -> v.(j) <- v.(j) -. (f *. uj)) u)
        (List.rev !kept);
      let p = ref 0 in
      Array.iteri (fun j vj -> if abs_float vj > abs_float v.(!p) then p := j) v;
      abs_float v.(!p) > 1e-9
      && begin
        kept := (!p, v) :: !kept;
        true
      end)
    rows

(* Calls [f] once per k-subset of [pool], written to [buf.(at ..)] in
   increasing order. *)
let rec subsets pool k ~start ~buf ~at f =
  if k = 0 then f ()
  else
    for i = start to Array.length pool - k do
      buf.(at) <- pool.(i);
      subsets pool (k - 1) ~start:(i + 1) ~buf ~at:(at + 1) f
    done

(* The solution of [m] (k rows of [A | b]) by Gaussian elimination with
   partial pivoting, or [None] when it is singular. Overwrites [m]. *)
let solve_square m k =
  let ok = ref true in
  for col = 0 to k - 1 do
    if !ok then begin
      let piv = ref col in
      for i = col + 1 to k - 1 do
        if abs_float m.(i).(col) > abs_float m.(!piv).(col) then piv := i
      done;
      if abs_float m.(!piv).(col) < 1e-12 then ok := false
      else begin
        let tmp = m.(col) in
        m.(col) <- m.(!piv);
        m.(!piv) <- tmp;
        for i = 0 to k - 1 do
          if i <> col then begin
            let f = m.(i).(col) /. m.(col).(col) in
            for j = col to k do
              m.(i).(j) <- m.(i).(j) -. (f *. m.(col).(j))
            done
          end
        done
      end
    end
  done;
  if !ok then Some (Array.init k (fun i -> m.(i).(k) /. m.(i).(i))) else None

(* Every basic feasible point of {x >= 0 : constrs} over [nvars]
   variables. A basis leaves k variables basic, the rest at zero, and
   makes k rows tight — every row of a maximal independent set of the
   Eq rows, and k minus that many of the others. Each basis
   whose k x k system has a unique solution is kept when the point
   satisfies every row, so a dependent Eq row holds too. A degenerate
   vertex appears once per basis. *)
let vertices ~nvars constrs =
  let n = nvars in
  let eqs, ineqs =
    List.partition
      (fun (c : Linprog.Simplex.constr) -> c.relation = Linprog.Simplex.Eq)
      constrs
  in
  let eqs = Array.of_list (independent eqs) and ineqs = Array.of_list ineqs in
  let neq = Array.length eqs in
  let tight = Array.make n (Linprog.Simplex.constr [||] Linprog.Simplex.Eq 0.) in
  Array.blit eqs 0 tight 0 neq;
  let basic = Array.make n 0 and vars = Array.init n Fun.id in
  let found = ref [] in
  let squares = Array.init (n + 1) (fun k -> Array.make_matrix k (k + 1) 0.) in
  let try_basis k () =
    let m = squares.(k) in
    for i = 0 to k - 1 do
      let c = tight.(i) and r = m.(i) in
      for j = 0 to k - 1 do
        r.(j) <- c.coeffs.(basic.(j))
      done;
      r.(k) <- c.rhs
    done;
    match solve_square m k with
    | None -> ()
    | Some xb ->
      let x = Array.make n 0. in
      Array.iteri (fun j v -> x.(basic.(j)) <- v) xb;
      let scale = Array.fold_left (fun m v -> Float.max m (abs_float v)) 0. xb in
      if
        Array.for_all (fun v -> v >= -.(1e-9 +. (1e-12 *. scale))) xb
        && List.for_all (satisfies x) constrs
      then found := x :: !found
  in
  for k = neq to min n (neq + Array.length ineqs) do
    subsets vars k ~start:0 ~buf:basic ~at:0 (fun () ->
        (* a row that is zero on every basic column cannot be tight in a
           basis with a unique solution *)
        let pool =
          Array.of_list
            (List.filter
               (fun (c : Linprog.Simplex.constr) ->
                 Array.exists (fun j -> c.coeffs.(j) <> 0.) (Array.sub basic 0 k))
               (Array.to_list ineqs))
        in
        subsets pool (k - neq) ~start:0 ~buf:tight ~at:neq (try_basis k))
  done;
  List.rev !found

(* The added box x_j <= box: far above every vertex the tests
   generate, so every feasible system has a vertex off it, and an
   optimum on it means the LP is unbounded. *)
let box = 1e9

(* max c . x over {x >= 0 : constrs}. No vertex off the box:
   [Infeasible]. A vertex on the box better than every vertex off it:
   [Unbounded]. Otherwise the first best vertex off the box. *)
let maximize ~c ~constrs =
  let n = Array.length c in
  let boxed =
    List.init n (fun j ->
        Linprog.Simplex.constr
          (Array.init n (fun i -> if i = j then 1. else 0.))
          Linprog.Simplex.Le box)
  in
  let on_box, inside =
    List.partition
      (Array.exists (fun v -> v > box /. 2.))
      (vertices ~nvars:n (constrs @ boxed))
  in
  match inside with
  | [] -> Linprog.Simplex.Infeasible
  | first :: rest ->
    let x =
      List.fold_left (fun y x -> if dot c x > dot c y then x else y) first rest
    in
    let objective = dot c x in
    let slack = 1e-6 *. (1. +. abs_float objective) in
    if List.exists (fun y -> dot c y > objective +. slack) on_box then
      Linprog.Simplex.Unbounded
    else Linprog.Simplex.Optimal { Linprog.Simplex.x; objective }
