type opt_result = { ra : float; rb : float; deltas : float array }

let sum r = r.ra +. r.rb

(* LP variable layout: x = [ Ra; Rb; d_1; ...; d_L ]. *)
let lp_constraints (b : Bound.t) =
  let l = b.Bound.num_phases in
  let nvars = 2 + l in
  let of_term (t : Bound.term) =
    let coeffs = Array.make nvars 0. in
    coeffs.(0) <- t.Bound.ca;
    coeffs.(1) <- t.Bound.cb;
    Array.iteri (fun i c -> coeffs.(2 + i) <- -.c) t.Bound.per_phase;
    Linprog.Simplex.constr coeffs Linprog.Simplex.Le 0.
  in
  let simplex_row =
    let coeffs = Array.make nvars 0. in
    for i = 2 to nvars - 1 do
      coeffs.(i) <- 1.
    done;
    Linprog.Simplex.constr coeffs Linprog.Simplex.Eq 1.
  in
  (nvars, simplex_row :: List.map of_term b.Bound.terms)

(* Canonical cache key for a bound system, as a binary string of 8-byte
   little-endian words: a protocol/kind tag, the phase count, then per
   term its arity and the IEEE-754 bits of [ca], [cb] and every
   per-phase coefficient. Two bounds share a key iff they have the same
   protocol, kind and shape and every coefficient is bit-identical (so
   [0.] and [-0.] differ), hence repeated queries over overlapping
   scenarios share LP solutions. A string key hashes all of its bytes;
   a [float array] would hash only its first 10 values. *)
let put_int k pos n = Bytes.set_int64_le k pos (Int64.of_int n)
let put_float k pos c = Bytes.set_int64_le k pos (Int64.bits_of_float c)

let protocol_tag = function
  | Protocol.Dt -> 0
  | Protocol.Naive -> 1
  | Protocol.Mabc -> 2
  | Protocol.Tdbc -> 3
  | Protocol.Hbc -> 4

let kind_tag = function Bound.Inner -> 0 | Bound.Outer -> 1

let system_tag protocol kind = (2 * protocol_tag protocol) + kind_tag kind

let num_systems = 10

let bound_key (b : Bound.t) =
  let words =
    List.fold_left
      (fun n (t : Bound.term) -> n + 3 + Array.length t.Bound.per_phase)
      2 b.Bound.terms
  in
  let k = Bytes.create (8 * words) in
  put_int k 0 (system_tag b.Bound.protocol b.Bound.bound_kind);
  put_int k 8 b.Bound.num_phases;
  let rec put_terms pos = function
    | [] -> ()
    | (t : Bound.term) :: rest ->
      let pp = t.Bound.per_phase in
      let n = Array.length pp in
      put_int k pos n;
      put_float k (pos + 8) t.Bound.ca;
      put_float k (pos + 16) t.Bound.cb;
      for i = 0 to n - 1 do
        put_float k (pos + 24 + (8 * i)) (Array.unsafe_get pp i)
      done;
      put_terms (pos + 24 + (8 * n)) rest
  in
  put_terms 16 b.Bound.terms;
  Bytes.unsafe_to_string k

(* The bound key followed by the bits of a point: the weights of a
   weighted LP (its memo key) or the rates of a feasibility probe,
   which shift the probe system's right-hand sides (its slot key). *)
let point_key key x y =
  let n = String.length key in
  let k = Bytes.create (n + 16) in
  Bytes.blit_string key 0 k 0 n;
  put_float k n x;
  put_float k (n + 8) y;
  Bytes.unsafe_to_string k

(* Memoized optima are stored as [ra; rb; d_1; ...; d_L] in
   native-endian 8-byte words (see [Engine.Memo]): no entry is a heap
   object the GC must trace, and a hit decodes straight into the
   caller's result. *)
let encode_optimum v =
  let b = Bytes.create (8 * Array.length v) in
  for i = 0 to Array.length v - 1 do
    Bytes.set_int64_ne b (8 * i) (Int64.bits_of_float (Array.unsafe_get v i))
  done;
  Bytes.unsafe_to_string b

let optimum_word b off i =
  Int64.float_of_bits (Bytes.get_int64_ne b (off + (8 * i)))

let optimum_deltas b off len =
  let d = Array.create_float ((len / 8) - 2) in
  for i = 0 to Array.length d - 1 do
    Array.unsafe_set d i (optimum_word b off (i + 2))
  done;
  d

let decode_optimum b off len =
  { ra = optimum_word b off 0;
    rb = optimum_word b off 1;
    deltas = optimum_deltas b off len;
  }

let weighted_cache = Engine.Memo.create ~name:"rate_region.weighted" ()

(* --- per-domain warm-start solver slots ---------------------------- *)

(* One [Linprog.Solver.t] per (LP shape, domain): the shape — weighted
   optimum vs feasibility probe, phase count, term count — determines
   the tableau layout, so one instance serves every bound system of that
   shape. A frontier search over one bound system reoptimises the loaded
   tableau (phase 1 never re-runs); moving to the next block's bound system
   rebuilds in place and carries the optimal basis across. Instances
   live in [Domain.DLS], so pool workers warm-start independently and
   no instance is ever shared between domains (the Solver ownership
   contract). An epoch bumped by [Engine.Memo.clear_all] invalidates
   every domain's slots, so "cold cache" runs rebuild their solvers
   from scratch. *)

let solver_epoch = Atomic.make 0

let () = Engine.Memo.on_clear_all (fun () -> Atomic.incr solver_epoch)

type solver_slot = {
  solver : Linprog.Solver.t;
  mutable loaded : Bytes.t;
      (* bound key of the system currently loaded, rewritten in place
         on every reload (symbolic or template) *)
  c : float array; (* objective buffer, [nvars] slots *)
  x : float array; (* solution buffer for [reoptimize_into], [nvars + 1] *)
}

type slot_table = {
  mutable epoch : int;
  slots : (int, solver_slot) Hashtbl.t;
}

(* The slot-table key: LP kind (0 weighted optimum, 1 feasibility probe),
   term count and phase count packed into one int. *)
let shape ~probe (b : Bound.t) =
  (b.Bound.num_phases lsl 32)
  lor (List.length b.Bound.terms lsl 1)
  lor if probe then 1 else 0

let slots_key =
  Domain.DLS.new_key (fun () ->
      { epoch = Atomic.get solver_epoch; slots = Hashtbl.create 8 })

let domain_slots () =
  let t = Domain.DLS.get slots_key in
  let e = Atomic.get solver_epoch in
  if t.epoch <> e then begin
    Hashtbl.reset t.slots;
    t.epoch <- e
  end;
  t.slots

let new_slot slots shape solver ~nvars ~loaded =
  let s =
    { solver; loaded; c = Array.make nvars 0.; x = Array.make (nvars + 1) 0. }
  in
  Hashtbl.replace slots shape s;
  s

let mark_loaded s key =
  let n = String.length key in
  if Bytes.length s.loaded <> n then s.loaded <- Bytes.of_string key
  else Bytes.blit_string key 0 s.loaded 0 n

(* Fetch this domain's slot for [shape], loading [constrs b] when the
   slot holds a different bound system (or none yet). The slot owns the
   [c]/[x] buffers its solver's [reoptimize_into] runs against, so a
   warm weighted solve allocates nothing on the solve path. *)
let slot_for ~shape ~key ~nvars b constrs =
  let slots = domain_slots () in
  match Hashtbl.find slots shape with
  | s ->
    if not (String.equal (Bytes.unsafe_to_string s.loaded) key) then begin
      Linprog.Solver.rebuild s.solver ~constrs:(constrs b);
      mark_loaded s key
    end;
    s
  | exception Not_found ->
    new_slot slots shape
      (Linprog.Solver.create ~nvars ~constrs:(constrs b))
      ~nvars ~loaded:(Bytes.of_string key)

(* Latency of every weighted optimum and feasibility probe actually
   solved; memo hits never reach this. Template solves are not timed
   one by one: a span and two clock reads cost about a tenth of one,
   and their callers time them in bulk (the [optimize.sum_rate] span of
   a memo miss, the [ergodic.cell] span of a batch of fading samples). *)
let lp_seconds = Telemetry.Metrics.histogram "lp.solve_seconds"

let timed_lp span f =
  Telemetry.Span.with_span ~cat:"lp" span (fun () ->
      Telemetry.Metrics.time lp_seconds f)

let solve_weighted ~key b ~wa ~wb =
  timed_lp "lp.solve"
  @@ fun () ->
  let nvars = 2 + b.Bound.num_phases in
  let slot =
    slot_for ~shape:(shape ~probe:false b) ~key ~nvars b (fun b ->
        snd (lp_constraints b))
  in
  let c = slot.c in
  Array.fill c 0 nvars 0.;
  c.(0) <- wa;
  c.(1) <- wb;
  match Linprog.Solver.reoptimize_into slot.solver ~c ~x:slot.x with
  | Linprog.Solver.Optimal -> Array.sub slot.x 0 nvars
  | Linprog.Solver.Unbounded ->
    failwith "Rate_region.max_weighted: unbounded bound system"
  | Linprog.Solver.Infeasible ->
    failwith "Rate_region.max_weighted: infeasible bound system"

(* [~key] must be [bound_key b]; frontier searches compute it once and
   reuse it across their LPs — building the key is cheap next to a
   solve but not next to a cache hit. *)
let max_weighted_keyed ~key b ~wa ~wb =
  if wa < 0. || wb < 0. || wa +. wb <= 0. then
    invalid_arg "Rate_region.max_weighted: bad weights";
  Engine.Memo.find_or_add weighted_cache (point_key key wa wb)
    ~decode:decode_optimum (fun () ->
      encode_optimum (solve_weighted ~key b ~wa ~wb))

let max_weighted b ~wa ~wb = max_weighted_keyed ~key:(bound_key b) b ~wa ~wb

(* A tiny secondary weight makes the corner lexicographic without
   perturbing the primary optimum at these problem scales. *)
let lex_eps = 1e-7

(* The sum-rate objective is parallel to the region's dominant face
   (slope -1), so the pure (1, 1) optimum is a whole edge whenever
   that face is active and the vertex a warm-started solve lands on
   depends on basis history. The lexicographic tilt selects the unique
   ra-most vertex of that face, making the reported maximizer
   history-independent; the sum itself is unaffected. *)
let max_sum_rate b = max_weighted b ~wa:(1. +. lex_eps) ~wb:1.

(* --- compiled sum-rate templates -------------------------------- *)

(* Every (protocol, kind) sum-rate LP has one fixed structure: only the
   Templates.mi values in its per-phase cells change from scenario to
   scenario. A template is that structure compiled once from
   [Templates.bounds] itself: the system is evaluated on an [mi] whose
   fields are distinct sentinels, loaded through [lp_constraints] and
   the solver's normal image, and each sentinel's landing places are
   read back — in the image (as [-. v], the per-phase coefficients are
   negated into the [<=] rows) and in [bound_key] (as the bits of [v]).
   A cold solve then patches those cells and words of a per-domain
   copy, and hands the image to the same per-shape slot the symbolic
   path uses, marked with the byte-identical bound key: symbolic and
   template loads recognise each other, so the basis history of a
   mixed pass is the one the symbolic path alone would give. *)

type template = {
  tag : int;                  (* [system_tag] *)
  slot_shape : int;           (* [shape ~probe:false] of the system *)
  nvars : int;
  image : Linprog.Solver.image; (* sentinel image, never loaded as is *)
  cell_at : int array;        (* image cells to patch ... *)
  cell_field : int array;     (* ... with the negated mi field *)
  key : string;               (* bound key of the sentinel system *)
  key_at : int array;         (* bound-key byte offsets to patch ... *)
  key_field : int array;      (* ... with the bits of the mi field *)
  fields : int array;         (* distinct mi fields read, ascending *)
}

let sentinel k = 1000. +. float_of_int k

let compile protocol kind =
  let b = Templates.bounds protocol kind (Templates.of_fields sentinel) in
  let nvars, constrs = lp_constraints b in
  let image = Linprog.Solver.image ~nvars ~constrs in
  let cells = Linprog.Solver.image_cells image in
  let key = bound_key b in
  let cell_hits = ref [] and key_hits = ref [] in
  for k = Templates.num_fields - 1 downto 0 do
    let v = sentinel k in
    for i = Float.Array.length cells - 1 downto 0 do
      if Float.Array.get cells i = -.v then cell_hits := (i, k) :: !cell_hits
    done;
    for w = (String.length key / 8) - 1 downto 0 do
      if String.get_int64_le key (8 * w) = Int64.bits_of_float v then
        key_hits := (8 * w, k) :: !key_hits
    done
  done;
  let fields_of hits = List.sort_uniq compare (List.map snd hits) in
  (* every per-phase coefficient is one tableau cell and one key word *)
  if List.map snd !cell_hits <> List.map snd !key_hits then
    failwith "Rate_region: template cells and key words disagree";
  let at hits = Array.of_list (List.map fst hits)
  and field hits = Array.of_list (List.map snd hits) in
  { tag = system_tag protocol kind;
    slot_shape = shape ~probe:false b;
    nvars;
    image;
    cell_at = at !cell_hits;
    cell_field = field !cell_hits;
    key;
    key_at = at !key_hits;
    key_field = field !key_hits;
    fields = Array.of_list (fields_of !cell_hits);
  }

(* Compiled on first use, then shared by every domain. Compilation is
   pure, so two domains racing on a cold entry build equal templates
   and the first one stored wins. *)
let compiled = Array.init num_systems (fun _ -> Atomic.make None)

let sum_rate_template protocol kind =
  let cell = compiled.(system_tag protocol kind) in
  match Atomic.get cell with
  | Some t -> t
  | None ->
    ignore (Atomic.compare_and_set cell None (Some (compile protocol kind)));
    Option.get (Atomic.get cell)

let template_fields t = Array.copy t.fields

(* Per-domain working copies: the patched image and bound key of every
   template this domain has solved, and the mi values being patched
   in. The template itself is shared and never written. *)
type patch = { p_image : Linprog.Solver.image; p_key : Bytes.t }

type template_scratch = {
  patches : patch option array; (* by [system_tag] *)
  vals : floatarray;            (* [Templates.fields_into] buffer *)
}

let template_scratch =
  Domain.DLS.new_key (fun () ->
      { patches = Array.make num_systems None;
        vals = Float.Array.create Templates.num_fields;
      })

(* The memo key of a template solve: the system tag, then the bits of
   each field the template reads. Equal keys mean equal bound keys, so
   scenarios that differ only in fields the system ignores (DT reads
   only the direct link) share one entry. *)
let template_key t m =
  let vals = (Domain.DLS.get template_scratch).vals in
  Templates.fields_into m vals;
  let n = Array.length t.fields in
  let k = Bytes.create (8 * (n + 1)) in
  put_int k 0 t.tag;
  for i = 0 to n - 1 do
    put_float k (8 * (i + 1)) (Float.Array.get vals t.fields.(i))
  done;
  Bytes.unsafe_to_string k

let patch_for sc t =
  match sc.patches.(t.tag) with
  | Some p -> p
  | None ->
    let p =
      { p_image = Linprog.Solver.copy_image t.image;
        p_key = Bytes.of_string t.key;
      }
    in
    sc.patches.(t.tag) <- Some p;
    p

let patch_cells t p vals =
  let cells = Linprog.Solver.image_cells p.p_image in
  for i = 0 to Array.length t.cell_at - 1 do
    Float.Array.set cells t.cell_at.(i) (-.Float.Array.get vals t.cell_field.(i))
  done

(* The whole cold solve on a loaded slot allocates nothing: the patch
   writes go to this domain's buffers, the load is the kernel-side
   carry over the solver's own scratch, and [reoptimize_into] lands in
   the slot's [x]. *)
let solve_template_into t m =
  let sc = Domain.DLS.get template_scratch in
  let vals = sc.vals in
  Templates.fields_into m vals;
  let p = patch_for sc t in
  for i = 0 to Array.length t.key_at - 1 do
    Bytes.set_int64_le p.p_key t.key_at.(i)
      (Int64.bits_of_float (Float.Array.get vals t.key_field.(i)))
  done;
  let slots = domain_slots () in
  let slot =
    match Hashtbl.find slots t.slot_shape with
    | s ->
      if not (Bytes.equal s.loaded p.p_key) then begin
        patch_cells t p vals;
        Linprog.Solver.load s.solver p.p_image;
        mark_loaded s (Bytes.unsafe_to_string p.p_key)
      end;
      s
    | exception Not_found ->
      patch_cells t p vals;
      new_slot slots t.slot_shape
        (Linprog.Solver.of_image p.p_image)
        ~nvars:t.nvars ~loaded:(Bytes.copy p.p_key)
  in
  let c = slot.c in
  Array.fill c 0 t.nvars 0.;
  c.(0) <- 1. +. lex_eps;
  c.(1) <- 1.;
  match Linprog.Solver.reoptimize_into slot.solver ~c ~x:slot.x with
  | Linprog.Solver.Optimal -> slot.x
  | Linprog.Solver.Unbounded ->
    failwith "Rate_region.solve_template: unbounded bound system"
  | Linprog.Solver.Infeasible ->
    failwith "Rate_region.solve_template: infeasible bound system"

let solve_template t m = Array.sub (solve_template_into t m) 0 t.nvars

let max_ra_keyed ~key b = max_weighted_keyed ~key b ~wa:1. ~wb:lex_eps
let max_rb_keyed ~key b = max_weighted_keyed ~key b ~wa:lex_eps ~wb:1.
let max_ra b = max_ra_keyed ~key:(bound_key b) b
let max_rb b = max_rb_keyed ~key:(bound_key b) b

let probe_achievable ~key b ~ra ~rb =
  timed_lp "lp.probe"
  @@ fun () ->
  (* project out the rates: constraints over the durations only *)
  let l = b.Bound.num_phases in
  let constrs b =
    let of_term (t : Bound.term) =
      (* sum_l c_l d_l >= ca ra + cb rb *)
      Linprog.Simplex.constr
        (Array.copy t.Bound.per_phase)
        Linprog.Simplex.Ge
        ((t.Bound.ca *. ra) +. (t.Bound.cb *. rb) -. 1e-9)
    in
    let simplex_row =
      Linprog.Simplex.constr (Array.make l 1.) Linprog.Simplex.Eq 1.
    in
    simplex_row :: List.map of_term b.Bound.terms
  in
  (* probes shift the right-hand side per (ra, rb), so every probe
     rebuilds its slot (the loaded key pins the probed point too). When
     the carried basis survives the new rhs the rebuild skips phase 1
     and [feasible] answers immediately; otherwise this is the
     documented case where phase 1 re-runs. *)
  let slot =
    slot_for ~shape:(shape ~probe:true b) ~key:(point_key key ra rb)
      ~nvars:l b constrs
  in
  Linprog.Solver.feasible slot.solver

let achievable_keyed ~key b ~ra ~rb =
  (ra >= -1e-12 && rb >= -1e-12) && probe_achievable ~key b ~ra ~rb

let achievable b ~ra ~rb = achievable_keyed ~key:(bound_key b) b ~ra ~rb

(* --- the exact frontier by dichotomic search ------------------------ *)

(* The Pareto frontier of a region is a convex chain from the Rb corner
   to the Ra corner. Between two known frontier points p and q (p left
   of q), the weighted LP along the outward normal of the segment pq
   either finds a point strictly beyond the segment, a vertex between
   them around which the search recurses, or shows that pq is a
   frontier edge. V frontier vertices cost 2V - 1 LPs: the two corners,
   one per inner vertex and one per edge (the NISE method of Cohon,
   Church and Sheer). The LPs run in the calling domain, the left part
   first, so their order, and with it the basis history, does not
   depend on the domain count. *)

(* How far beyond a segment a point must lie to count as a new vertex,
   relative to the segment's weighted value: far above the round-off
   of an optimum, far below any real vertex's lead. *)
let beyond_tol = 1e-9

(* The frontier vertices with their schedules, by increasing Ra. Two
   corners closer than 1e-7 are one vertex reached by two solves. *)
let frontier ~key b =
  let p = max_rb_keyed ~key b and q = max_ra_keyed ~key b in
  (* the vertices strictly between [p] and [q], in decreasing Ra, on
     top of [acc]; the LP weights are the segment's outward normal,
     scaled to sum to 1 *)
  let rec between p q acc =
    let dy = p.rb -. q.rb and dx = q.ra -. p.ra in
    if dy <= 0. || dx <= 0. then acc
    else
      let wa = dy /. (dy +. dx) and wb = dx /. (dy +. dx) in
      let r = max_weighted_keyed ~key b ~wa ~wb in
      let level = (wa *. p.ra) +. (wb *. p.rb) in
      if
        (wa *. r.ra) +. (wb *. r.rb)
        > level +. (beyond_tol *. Float.max 1. (abs_float level))
      then between r q (r :: between p r acc)
      else acc
  in
  if Float.hypot (q.ra -. p.ra) (q.rb -. p.rb) < 1e-7 then [ p ]
  else List.rev (q :: between p q [ p ])

let boundary_keyed ~key b =
  Telemetry.Span.with_span ~cat:"region" "region.boundary" @@ fun () ->
  List.map (fun r -> Numerics.Vec2.make r.ra r.rb) (frontier ~key b)

let boundary b = boundary_keyed ~key:(bound_key b) b

let polygon_keyed ~key b =
  Telemetry.Span.with_span ~cat:"region" "region.polygon" (fun () ->
      Numerics.Polygon.down_closure (boundary_keyed ~key b))

let polygon b = polygon_keyed ~key:(bound_key b) b

let area b = Numerics.Polygon.area (polygon b)

let contains_region big small =
  let key = bound_key big in
  List.for_all
    (fun (p : Numerics.Vec2.t) ->
      achievable_keyed ~key big ~ra:p.Numerics.Vec2.x ~rb:p.Numerics.Vec2.y)
    (boundary small)

let distance_outside b ~ra ~rb =
  let key = bound_key b in
  if achievable_keyed ~key b ~ra ~rb then 0.
  else
    Numerics.Polygon.distance_to_boundary (polygon_keyed ~key b)
      (Numerics.Vec2.make ra rb)

let max_product b =
  let pts = boundary b in
  (* the product is a quadratic along each frontier edge; its interior
     critical point is t* = -(x0 dy + y0 dx) / (2 dx dy) *)
  let edge_best (p : Numerics.Vec2.t) (q : Numerics.Vec2.t) =
    let candidates =
      let dx = q.Numerics.Vec2.x -. p.Numerics.Vec2.x in
      let dy = q.Numerics.Vec2.y -. p.Numerics.Vec2.y in
      let interior =
        if abs_float (dx *. dy) < 1e-15 then []
        else begin
          let t =
            -.((p.Numerics.Vec2.x *. dy) +. (p.Numerics.Vec2.y *. dx))
            /. (2. *. dx *. dy)
          in
          if t > 0. && t < 1. then [ Numerics.Vec2.lerp p q t ] else []
        end
      in
      p :: q :: interior
    in
    Numerics.Float_utils.max_by
      (fun (v : Numerics.Vec2.t) -> v.Numerics.Vec2.x *. v.Numerics.Vec2.y)
      candidates
  in
  match pts with
  | [] -> Numerics.Vec2.zero
  | [ p ] -> p
  | first :: rest ->
    let _, best =
      List.fold_left
        (fun (prev, best) q ->
          let cand = edge_best prev q in
          let better =
            cand.Numerics.Vec2.x *. cand.Numerics.Vec2.y
            > best.Numerics.Vec2.x *. best.Numerics.Vec2.y
          in
          (q, if better then cand else best))
        (first, first) rest
    in
    best

let union_polygon bounds =
  if bounds = [] then invalid_arg "Rate_region.union_polygon: no regions";
  Numerics.Polygon.down_closure
    (List.concat_map boundary bounds)

let binding_terms ?(eps = 1e-7) (b : Bound.t) r =
  List.filter
    (fun (t : Bound.term) ->
      let lhs = (t.Bound.ca *. r.ra) +. (t.Bound.cb *. r.rb) in
      let rhs = Bound.rate_budget b ~deltas:r.deltas t in
      abs_float (lhs -. rhs) <= eps *. Float.max 1. (abs_float rhs))
    b.Bound.terms

let boundary_with_schedules b = frontier ~key:(bound_key b) b
