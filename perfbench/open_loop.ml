(* An open-loop request driver. Requests are due on a fixed schedule
   drawn from the seed, whatever the system's speed, so a slow answer
   never delays the arrival of the next request; when every connection
   is busy a due request waits in a backlog. Latency is timed from each
   request's due time, so a stall is charged to every request that came
   due during it. The driver also records when it noticed each request
   was due: that lateness is the generator's own delay, and it must stay
   small for the latencies to be the system's.

   The transport is abstract so the self-tests can run the driver on a
   simulated clock and server. *)

(* Poisson arrivals at [rate] per second over [0, seconds). *)
let poisson_schedule ~seed ~rate ~seconds =
  let st = Random.State.make [| seed; 0x5eed |] in
  let rec go t acc =
    let u = Random.State.float st 1. in
    let t = t -. (Float.log (1. -. u) /. rate) in
    if t >= seconds then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0. []

type transport = {
  now : unit -> float;
  send : conn:int -> int -> unit;
      (** put request [i] on idle connection [conn] *)
  wait : until:float -> (int * float) list;
      (** block until a reply completes or the clock passes [until];
          returns [(conn, completion time)] of every reply completed *)
}

type trace = {
  due : float array;      (** absolute due times *)
  noticed : float array;  (** when the driver saw each request was due *)
  sent : float array;     (** when it went on a connection *)
  finished : float array; (** reply completion; [nan] if none came *)
}

(* Drive [Array.length offsets] requests due at [start + offsets.(i)]
   over [conns] connections; give up [timeout] seconds after the last
   due time. *)
let run ~conns ~start ~offsets ~timeout t =
  let n = Array.length offsets in
  let due = Array.map (fun o -> start +. o) offsets in
  let noticed = Array.make n nan
  and sent = Array.make n nan
  and finished = Array.make n nan in
  let idle = Queue.create () in
  for c = 0 to conns - 1 do
    Queue.push c idle
  done;
  let in_flight = Array.make conns (-1) in
  let backlog = Queue.create () in
  let next = ref 0 and completed = ref 0 in
  let give_up = (if n = 0 then start else due.(n - 1)) +. timeout in
  while !completed < n && t.now () < give_up do
    let now = t.now () in
    while !next < n && due.(!next) <= now do
      noticed.(!next) <- now;
      Queue.push !next backlog;
      incr next
    done;
    while (not (Queue.is_empty backlog)) && not (Queue.is_empty idle) do
      let i = Queue.pop backlog and c = Queue.pop idle in
      sent.(i) <- t.now ();
      in_flight.(c) <- i;
      t.send ~conn:c i
    done;
    let until = if !next < n then due.(!next) else give_up in
    List.iter
      (fun (c, at) ->
        let i = in_flight.(c) in
        if i >= 0 then begin
          finished.(i) <- at;
          in_flight.(c) <- -1;
          Queue.push c idle;
          incr completed
        end)
      (t.wait ~until)
  done;
  { due; noticed; sent; finished }

(* Per-request latency from the due time, and the generator's lateness;
   a request that never completed has [nan] latency. *)
let latencies tr = Array.mapi (fun i d -> tr.finished.(i) -. d) tr.due
let lateness tr = Array.mapi (fun i d -> tr.noticed.(i) -. d) tr.due
