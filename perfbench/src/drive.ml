(* One instance, start to FR fixpoint, through the repo's own harness:
   [Run.Runner] builds the engine and [Run.make_stop] with the
   [not (Fr.improvable tree)] oracle ([Exp_common.fixpoint]) decides
   convergence (legitimate, 60 quiet rounds, FR fixpoint).  The stop
   predicate is wrapped from outside to time the detector, time the
   oracle, note the first legitimate check and, between the sharded
   engine's windows, the per-window event deltas. *)

module Run = Mdst_core.Run
module Checker = Mdst_core.Checker
module Metrics = Mdst_sim.Metrics
module Fault = Mdst_sim.Fault
module Tree = Mdst_graph.Tree

type detector = {
  mutable legit_round : int;  (** round of the first legitimate check, -1 before *)
  mutable stop_calls : int;
  mutable stop_ns : int;  (** inside the stop predicate, oracle included *)
  mutable oracle_calls : int;
  mutable oracle_ns : int;
  mutable peak_pending : int;
  mutable windows : int;  (** gaps between stop calls that ran the engine *)
  mutable null_windows : int;  (** ... of which executed no event *)
  mutable window_ns : int;
  mutable window_events : int;
  mutable last_events : int;
  mutable last_exit : int;  (** clock when the previous stop call returned, 0 before *)
}

let detector () =
  {
    legit_round = -1;
    stop_calls = 0;
    stop_ns = 0;
    oracle_calls = 0;
    oracle_ns = 0;
    peak_pending = 0;
    windows = 0;
    null_windows = 0;
    window_ns = 0;
    window_events = 0;
    last_events = 0;
    last_exit = 0;
  }

type outcome = {
  converged : bool;  (** every phase reached the fixpoint within the round cap *)
  legitimate : bool;  (** final configuration, re-checked after the run *)
  run_ns : int;  (** host time inside the engine's run loop(s), detector included *)
  rounds : int;
  recovery_rounds : int;  (** rounds from the last perturbation to convergence *)
  events : int;  (** ticks + deliveries *)
  tree : Tree.t option;
  messages : int;
  bits : int;
  family_msgs : int array;  (** per {!Meter.families} *)
  family_bits : int array;
  max_state_bits : int;
  max_msg_bits : int;
  alloc_words : float;  (** allocated over engine create + run, all domains *)
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  live_words : int;  (** live heap held at convergence, after a full major GC *)
  faults_applied : int;
  corrupted : int;
  det : detector;
}

let oracle det tree =
  let t0 = Clock.now_ns () in
  let r = not (Mdst_baseline.Fr.improvable tree) in
  det.oracle_calls <- det.oracle_calls + 1;
  det.oracle_ns <- det.oracle_ns + (Clock.now_ns () - t0);
  r

let by_family pairs =
  let a = Array.make Meter.n_families 0 in
  List.iter
    (fun (label, v) ->
      Array.iteri (fun i f -> if f = label then a.(i) <- a.(i) + v) Meter.families)
    pairs;
  a

let gc_words () =
  let s = Gc.quick_stat () in
  (s.minor_words, s.promoted_words, s.major_words, s.major_collections)

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).live_words

module Make (A : Mdst_sim.Node.AUTOMATON with type state = Mdst_core.State.t and type msg = Mdst_core.Msg.t) =
struct
  module R = Run.Runner (A)

  (* [probe] reads (graph, states, rounds, pending events, executed events,
     faults pending) off either engine. *)
  let wrap_stop det probe stop e =
    let t0 = Clock.now_ns () in
    let graph, states, rounds, pending, events, faults_pending = probe e in
    if det.last_exit > 0 then begin
      det.windows <- det.windows + 1;
      det.window_ns <- det.window_ns + (t0 - det.last_exit);
      det.window_events <- det.window_events + (events - det.last_events);
      if events = det.last_events then det.null_windows <- det.null_windows + 1
    end;
    det.last_events <- events;
    if pending > det.peak_pending then det.peak_pending <- pending;
    if det.legit_round < 0 && Checker.legitimate graph states then det.legit_round <- rounds;
    let r = stop e && not faults_pending in
    let t1 = Clock.now_ns () in
    det.stop_calls <- det.stop_calls + 1;
    det.stop_ns <- det.stop_ns + (t1 - t0);
    det.last_exit <- t1;
    r

  let seq_probe ~ticks e =
    let module E = R.Engine in
    ( E.graph e,
      E.states e,
      E.rounds e,
      E.pending_events e,
      ticks () + Metrics.deliveries (E.metrics e),
      E.faults_pending e )

  let par_probe e =
    let module E = R.Pengine in
    (E.graph e, E.states e, E.rounds e, E.pending_events e, E.events e, E.faults_pending e)

  let finish ~det ~graph ~converged ~run_ns ~rounds ~recovery_rounds ~events ~metrics ~states
      ~gc0 ~live0 ~faults_applied ~corrupted ~keep =
    let m0, p0, j0, c0 = gc0 in
    let m1, p1, j1, c1 = gc_words () in
    let live = live_words () - live0 in
    ignore (Sys.opaque_identity keep);
    {
      converged;
      legitimate = Checker.legitimate graph states;
      run_ns;
      rounds;
      recovery_rounds;
      events;
      tree = Checker.tree_of_states graph states;
      messages = Metrics.total_messages metrics;
      bits = Metrics.total_bits metrics;
      family_msgs = by_family (Metrics.messages_by_label metrics);
      family_bits = by_family (Metrics.bits_by_label metrics);
      max_state_bits = Metrics.max_state_bits metrics;
      max_msg_bits = Metrics.max_msg_bits metrics;
      alloc_words = m1 -. m0 +. (j1 -. j0) -. (p1 -. p0);
      minor_words = m1 -. m0;
      promoted_words = p1 -. p0;
      major_collections = c1 - c0;
      live_words = live;
      faults_applied;
      corrupted;
      det;
    }

  (* Heap state is reset before every instance so one instance's garbage
     is never collected on the next one's clock. *)
  let prepare () =
    let live0 = live_words () in
    (live0, gc_words ())

  let sequential (w : Workload.t) (inst : Workload.instance) ~ticks =
    let det = detector () in
    let live0, gc0 = prepare () in
    let e = R.make_engine ~latency:inst.latency ~seed:inst.engine_seed ~init:w.init inst.graph in
    if not (Fault.is_empty inst.plan) then R.Engine.install_faults e inst.plan;
    let probe = seq_probe ~ticks in
    let phase max_rounds =
      let stop = wrap_stop det probe (R.make_stop ~fixpoint:(oracle det) ()) in
      let t0 = Clock.now_ns () in
      let o = R.Engine.run e ~max_rounds ~check_every:2 ~stop () in
      (o.converged, Clock.now_ns () - t0)
    in
    let converged, ns = phase Run.default_max_rounds in
    let converged, run_ns, recovery_rounds, corrupted =
      match w.corrupt with
      | Some fraction when converged ->
          let corrupted = R.Engine.corrupt e ~fraction ~channels:true () in
          let start = R.Engine.rounds e in
          let c2, ns2 = phase (start + Run.default_max_rounds) in
          (c2, ns + ns2, R.Engine.rounds e - start, corrupted)
      | _ -> (converged, ns, R.Engine.rounds e, 0)
    in
    let _, _, _, _, events, _ = probe e in
    finish ~det ~graph:inst.graph ~converged ~run_ns ~rounds:(R.Engine.rounds e) ~recovery_rounds
      ~events ~metrics:(R.Engine.metrics e) ~states:(R.Engine.states e) ~gc0 ~live0
      ~faults_applied:(Fault.total (R.Engine.fault_stats e))
      ~corrupted ~keep:e

  let sharded (w : Workload.t) (inst : Workload.instance) ~domains ~partition =
    if w.corrupt <> None || not (Fault.is_empty inst.plan) then
      invalid_arg "Drive.sharded: the sharded engine takes no scheduled faults";
    let det = detector () in
    let live0, gc0 = prepare () in
    let e =
      R.make_pengine ~latency:inst.latency ~seed:inst.engine_seed ~init:w.init ~partition ~domains
        inst.graph
    in
    let stop = wrap_stop det par_probe (R.make_pstop ~fixpoint:(oracle det) ()) in
    let t0 = Clock.now_ns () in
    let o = R.Pengine.run e ~max_rounds:Run.default_max_rounds ~stop () in
    let run_ns = Clock.now_ns () - t0 in
    finish ~det ~graph:inst.graph ~converged:o.converged ~run_ns ~rounds:(R.Pengine.rounds e)
      ~recovery_rounds:(R.Pengine.rounds e) ~events:(R.Pengine.events e)
      ~metrics:(R.Pengine.metrics e) ~states:(R.Pengine.states e) ~gc0 ~live0
      ~faults_applied:(Fault.total (R.Pengine.fault_stats e))
      ~corrupted:0 ~keep:e
end
