(* Per-layer meters, applied from outside the protocol: [Timed] wraps
   [Proto.Default] handler by handler and is passed to [Run.Runner] like any
   other automaton; [Counted] adds only a tick counter, which the untimed
   sequential runs need to report events (the engine counts deliveries but
   not ticks).

   Accumulators live in domain-local storage because the sharded engine runs
   handlers on several domains at once and spawns fresh worker domains for
   every window; each domain registers its accumulator on first use, and
   [collect] sums the registry. *)

module P = Mdst_core.Proto.Default
module Msg = Mdst_core.Msg
module Node = Mdst_sim.Node

let families = [| "info"; "search"; "swap-req"; "remove"; "grant"; "reverse"; "update-dist"; "deblock" |]

let n_families = Array.length families

(* Slot of the periodic timer in the per-handler arrays. *)
let tick = n_families

let family : Msg.t -> int = function
  | Info _ -> 0
  | Search _ -> 1
  | Swap_req _ -> 2
  | Remove _ -> 3
  | Grant _ -> 4
  | Reverse _ -> 5
  | Update_dist _ -> 6
  | Deblock _ -> 7

type acc = {
  calls : int array;  (** handler invocations, per family then tick *)
  handler_ns : int array;  (** inclusive handler time *)
  send_in_ns : int array;  (** part of [handler_ns] spent inside [ctx.send] *)
  mutable sends : int;
  mutable send_ns : int;  (** running total of [ctx.send] time *)
  mutable bits_in_send_ns : int;  (** [msg_bits] time inside [ctx.send] *)
  mutable bits_ns : int;  (** all [msg_bits] time *)
  mutable state_bits_ns : int;
  mutable span_start : int;
  mutable span_send : int;
}

let fresh () =
  {
    calls = Array.make (n_families + 1) 0;
    handler_ns = Array.make (n_families + 1) 0;
    send_in_ns = Array.make (n_families + 1) 0;
    sends = 0;
    send_ns = 0;
    bits_in_send_ns = 0;
    bits_ns = 0;
    state_bits_ns = 0;
    span_start = 0;
    span_send = 0;
  }

let registry = ref []
let registry_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let a = fresh () in
      Mutex.protect registry_lock (fun () -> registry := a :: !registry);
      a)

let acc () = Domain.DLS.get key

(* Wrapped contexts, one per node, rebuilt only when the engine hands out a
   different context (it does so only on reshape). *)
let wrapped : (Msg.t Node.ctx * Msg.t Node.ctx) option array ref = ref [||]

(* Zero every accumulator and size the context cache; call between runs,
   never while a sharded window is executing. *)
let reset ~n =
  Mutex.protect registry_lock (fun () -> registry := []);
  Domain.DLS.set key (fresh ());
  Mutex.protect registry_lock (fun () -> registry := [ Domain.DLS.get key ]);
  wrapped := Array.make n None

let collect () =
  let total = fresh () in
  List.iter
    (fun a ->
      for f = 0 to n_families do
        total.calls.(f) <- total.calls.(f) + a.calls.(f);
        total.handler_ns.(f) <- total.handler_ns.(f) + a.handler_ns.(f);
        total.send_in_ns.(f) <- total.send_in_ns.(f) + a.send_in_ns.(f)
      done;
      total.sends <- total.sends + a.sends;
      total.send_ns <- total.send_ns + a.send_ns;
      total.bits_in_send_ns <- total.bits_in_send_ns + a.bits_in_send_ns;
      total.bits_ns <- total.bits_ns + a.bits_ns;
      total.state_bits_ns <- total.state_bits_ns + a.state_bits_ns)
    (Mutex.protect registry_lock (fun () -> !registry));
  total

let timed_send (send : int -> Msg.t -> unit) dst m =
  let a = acc () in
  let b0 = a.bits_ns in
  let t0 = Clock.now_ns () in
  send dst m;
  let dt = Clock.now_ns () - t0 in
  a.sends <- a.sends + 1;
  a.send_ns <- a.send_ns + dt;
  a.bits_in_send_ns <- a.bits_in_send_ns + (a.bits_ns - b0)

let wrap (ctx : Msg.t Node.ctx) =
  let cache = !wrapped in
  match cache.(ctx.node) with
  | Some (orig, w) when orig == ctx -> w
  | _ ->
      let w = { ctx with send = timed_send ctx.send } in
      cache.(ctx.node) <- Some (ctx, w);
      w

(* Handlers never nest, so the open span lives in the accumulator. *)
let start () =
  let a = acc () in
  a.span_send <- a.send_ns;
  a.span_start <- Clock.now_ns ();
  a

let stop a slot =
  let dt = Clock.now_ns () - a.span_start in
  a.calls.(slot) <- a.calls.(slot) + 1;
  a.handler_ns.(slot) <- a.handler_ns.(slot) + dt;
  a.send_in_ns.(slot) <- a.send_in_ns.(slot) + (a.send_ns - a.span_send)

module Timed = struct
  include P

  let on_tick ctx st =
    let a = start () in
    let st = P.on_tick (wrap ctx) st in
    stop a tick;
    st

  let on_message ctx st ~src m =
    let a = start () in
    let st = P.on_message (wrap ctx) st ~src m in
    stop a (family m);
    st

  let msg_bits ~n m =
    let t0 = Clock.now_ns () in
    let b = P.msg_bits ~n m in
    let a = acc () in
    a.bits_ns <- a.bits_ns + (Clock.now_ns () - t0);
    b

  let state_bits ~n st =
    let t0 = Clock.now_ns () in
    let b = P.state_bits ~n st in
    let a = acc () in
    a.state_bits_ns <- a.state_bits_ns + (Clock.now_ns () - t0);
    b
end

(* Only used with the sequential engine, so a plain counter is safe. *)
let ticks = ref 0

module Counted = struct
  include P

  let on_tick ctx st =
    incr ticks;
    P.on_tick ctx st
end
