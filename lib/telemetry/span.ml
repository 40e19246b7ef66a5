type event = {
  name : string;
  cat : string;
  ts : float;
  dur : float;
  tid : int;
  parent : string;
  args : (string * Json.t) list;
}

let tracing = Atomic.make false
let epoch = Atomic.make 0.

let buf_lock = Mutex.create ()
let buf : event list ref = ref []

let stack_key : string list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let enabled () = Atomic.get tracing

let start () =
  Mutex.lock buf_lock;
  buf := [];
  Mutex.unlock buf_lock;
  Atomic.set epoch (Unix.gettimeofday ());
  Atomic.set tracing true

let stop () = Atomic.set tracing false

let record ev =
  Mutex.lock buf_lock;
  buf := ev :: !buf;
  Mutex.unlock buf_lock

let tid () = (Domain.self () :> int)

let with_span ?(cat = "app") ?(args = []) name f =
  if not (Atomic.get tracing) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let parent = match stack with [] -> "" | p :: _ -> p in
    Domain.DLS.set stack_key (name :: stack);
    let res0 = if Resource.enabled () then Some (Resource.sample ()) else None in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        Domain.DLS.set stack_key stack;
        let args =
          match res0 with
          | None -> args
          | Some s0 -> args @ Resource.span_args (Resource.delta_since s0)
        in
        record
          { name;
            cat;
            ts = t0 -. Atomic.get epoch;
            dur = t1 -. t0;
            tid = tid ();
            parent;
            args;
          })
      f
  end

let context () = Domain.DLS.get stack_key

let with_context ctx f =
  let old = Domain.DLS.get stack_key in
  Domain.DLS.set stack_key ctx;
  Fun.protect ~finally:(fun () -> Domain.DLS.set stack_key old) f

let events () =
  Mutex.lock buf_lock;
  let evs = !buf in
  Mutex.unlock buf_lock;
  List.sort
    (fun a b -> compare (a.ts, a.dur, a.name) (b.ts, b.dur, b.name))
    evs
