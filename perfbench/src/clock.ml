(* Host monotonic clock in integer nanoseconds; the read does not allocate,
   so it can sit on the per-event path of a traced run. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds ns = float_of_int ns *. 1e-9
