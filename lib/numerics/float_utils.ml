(* Inlined so [capacities_into] keeps its floats unboxed: an
   out-of-line call would box the argument and the result. *)
let[@inline] log2 x = log x /. log 2.

(* Batched AWGN capacity: dst.(i) <- log2 (1 + src.(i)) for the first
   [n] slots. Each element goes through the same [log2 (1. +. x)]
   expression as the scalar path (Channel.Awgn.c), so batching is
   bit-identical to n scalar calls. [src == dst] is fine — slots are
   independent. *)
let capacities_into ~src ~dst ~n =
  if n < 0 || n > Float.Array.length src || n > Float.Array.length dst then
    invalid_arg "Float_utils.capacities_into: bad length";
  for i = 0 to n - 1 do
    let x = Float.Array.unsafe_get src i in
    if x < 0. then invalid_arg "Float_utils.capacities_into: negative SNR";
    Float.Array.unsafe_set dst i (log2 (1. +. x))
  done

let db_to_lin d = 10. ** (d /. 10.)

let lin_to_db x =
  if x <= 0. then invalid_arg "Float_utils.lin_to_db: non-positive ratio";
  10. *. log10 x

let clamp ~lo ~hi x =
  if lo > hi then invalid_arg "Float_utils.clamp: lo > hi";
  if x < lo then lo else if x > hi then hi else x

let approx_equal ?(eps = 1e-9) a b =
  let diff = abs_float (a -. b) in
  diff <= eps || diff <= eps *. Float.max (abs_float a) (abs_float b)

let is_finite x = Float.is_finite x

let linspace a b n =
  if n < 2 then invalid_arg "Float_utils.linspace: need at least 2 samples";
  let step = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i ->
      if i = n - 1 then b else a +. (step *. float_of_int i))

let logspace a b n =
  Array.map (fun e -> 10. ** e) (linspace a b n)

(* Kahan compensated summation: the correction term [c] accumulates the
   low-order bits lost when adding a small element to a large sum. *)
let sum a =
  let total = ref 0. and c = ref 0. in
  Array.iter
    (fun x ->
      let y = x -. !c in
      let t = !total +. y in
      c := t -. !total -. y;
      total := t)
    a;
  !total

let mean a =
  if Array.length a = 0 then invalid_arg "Float_utils.mean: empty array";
  sum a /. float_of_int (Array.length a)

let max_by f = function
  | [] -> invalid_arg "Float_utils.max_by: empty list"
  | x :: rest ->
    let rec loop best best_v = function
      | [] -> best
      | y :: tl ->
        let v = f y in
        if v > best_v then loop y v tl else loop best best_v tl
    in
    loop x (f x) rest

let fold_range n ~init ~f =
  let rec loop acc i = if i >= n then acc else loop (f acc i) (i + 1) in
  loop init 0
