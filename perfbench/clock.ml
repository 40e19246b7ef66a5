(* Seconds on the monotonic clock, to the nanosecond: gettimeofday's
   microsecond ticks would quantize the ~40 us requests of serve-hot. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
