(* Tests for the discrete-event simulator: latency models, metrics, and the
   engine's FIFO / determinism / round-accounting / fault-injection
   contracts, exercised through small purpose-built automata. *)

module Prng = Mdst_util.Prng
module Graph = Mdst_graph.Graph
module Gen = Mdst_graph.Gen
module Latency = Mdst_sim.Latency
module Metrics = Mdst_sim.Metrics
module Node = Mdst_sim.Node

let check = Alcotest.(check bool)

(* ---------------- Latency ---------------- *)

let test_latency_positive () =
  let rng = Prng.create 3 in
  List.iter
    (fun name ->
      let m = Latency.by_name name 9 in
      for src = 0 to 3 do
        for dst = 0 to 3 do
          if src <> dst then
            check (name ^ " positive") true (Latency.sample m rng ~src ~dst > 0.0)
        done
      done)
    Latency.names

let test_latency_constant () =
  let rng = Prng.create 3 in
  let m = Latency.constant 2.0 in
  Alcotest.(check (float 0.0)) "constant" 2.0 (Latency.sample m rng ~src:0 ~dst:1)

let test_latency_slow_links_deterministic () =
  let m = Latency.slow_links ~factor:10.0 ~fraction:0.5 ~base:(Latency.constant 1.0) 7 in
  let rng = Prng.create 1 in
  let a = Latency.sample m rng ~src:0 ~dst:1 in
  let b = Latency.sample m rng ~src:0 ~dst:1 in
  Alcotest.(check (float 0.0)) "same link same slowdown" a b

let test_latency_unknown () =
  check "unknown model raises" true
    (try
       ignore (Latency.by_name "warp" 1);
       false
     with Invalid_argument _ -> true)

let test_latency_uniform_bounds () =
  let rng = Prng.create 8 in
  let m = Latency.uniform ~lo:0.5 ~hi:1.5 () in
  for _ = 1 to 2000 do
    let d = Latency.sample m rng ~src:0 ~dst:1 in
    check "in [lo,hi]" true (d >= 0.5 && d <= 1.5)
  done

let test_latency_exponential_mean () =
  let rng = Prng.create 9 in
  let m = Latency.exponential ~mean:2.0 () in
  let n = 30_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Latency.sample m rng ~src:0 ~dst:1
  done;
  let mean = !sum /. float_of_int n in
  check "mean near 2.0" true (abs_float (mean -. 2.0) < 0.1)

let test_latency_node_skew_is_per_receiver () =
  let m = Latency.node_skew ~max_factor:8.0 ~base:(Latency.constant 1.0) 5 in
  let rng = Prng.create 1 in
  let to_a = Latency.sample m rng ~src:0 ~dst:1 in
  let to_a' = Latency.sample m rng ~src:2 ~dst:1 in
  Alcotest.(check (float 1e-9)) "same receiver, same factor" to_a to_a'

(* ---------------- Metrics ---------------- *)

let test_metrics () =
  let m = Metrics.create () in
  Metrics.record_send m ~label:"a" ~bits:10;
  Metrics.record_send m ~label:"a" ~bits:30;
  Metrics.record_send m ~label:"b" ~bits:5;
  Metrics.record_delivery m;
  Metrics.record_state_bits m 12;
  Metrics.record_state_bits m 7;
  Alcotest.(check int) "total messages" 3 (Metrics.total_messages m);
  Alcotest.(check int) "deliveries" 1 (Metrics.deliveries m);
  Alcotest.(check int) "total bits" 45 (Metrics.total_bits m);
  Alcotest.(check (list (pair string int))) "by label" [ ("a", 2); ("b", 1) ]
    (Metrics.messages_by_label m);
  Alcotest.(check int) "max state bits" 12 (Metrics.max_state_bits m);
  Alcotest.(check int) "max msg bits" 30 (Metrics.max_msg_bits m);
  Metrics.reset m;
  Alcotest.(check int) "reset" 0 (Metrics.total_messages m)

(* ---------------- A toy automaton: sequence-number flooding ---------------- *)

(* Each node sends an incrementing counter to all neighbours on every tick
   and records, per neighbour, every value received.  FIFO means each
   neighbour's received list must be strictly increasing. *)
module Flood = struct
  type state = { next : int; received : (int * int) list (* src, value *) }

  type msg = int

  let name = "flood"

  let init _ = { next = 0; received = [] }

  let random_state _ rng = { next = Prng.int rng 100; received = [] }

  let random_msg _ rng = Some (Prng.int rng 100)

  let on_tick ctx st =
    Array.iter (fun nb -> ctx.Node.send nb st.next) ctx.Node.neighbors;
    { st with next = st.next + 1 }

  let on_message _ctx st ~src v = { st with received = (src, v) :: st.received }

  let msg_label _ = "flood"

  let msg_bits ~n:_ _ = 8

  let state_bits ~n:_ st = 8 * (1 + List.length st.received)
end

module FloodEngine = Mdst_sim.Pengine.Make (Flood)

let run_flood ?latency ~seed ~steps graph =
  let e = FloodEngine.create ?latency ~seed graph in
  for _ = 1 to steps do
    ignore (FloodEngine.step e)
  done;
  e

let test_engine_fifo () =
  (* Exponential latencies sample out of order; FIFO must still hold. *)
  let graph = Gen.ring 6 in
  let e = run_flood ~latency:(Latency.exponential ()) ~seed:5 ~steps:4000 graph in
  for v = 0 to 5 do
    let st = FloodEngine.state e v in
    let per_src = Hashtbl.create 4 in
    List.iter
      (fun (src, value) ->
        let prev = try Hashtbl.find per_src src with Not_found -> max_int in
        (* received list is newest-first: each older value must be smaller *)
        check "fifo order" true (value < prev);
        Hashtbl.replace per_src src value)
      (FloodEngine.state e v).received;
    ignore st
  done

let test_engine_scales_without_quadratic_memory () =
  (* n = 2048: a dense per-ordered-pair float matrix alone would be
     n^2 * 8 bytes = 33.5 MB.  The sparse per-channel FIFO floors keep the
     whole engine — graph, heap, states, plus 10k steps of traffic — well
     under half of that. *)
  let graph = Gen.erdos_renyi_connected (Prng.create 1) ~n:2048 ~p:(4.0 /. 2047.0) in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  let e = run_flood ~seed:7 ~steps:10_000 graph in
  Gc.full_major ();
  let after = (Gc.stat ()).Gc.live_words in
  let delta_bytes = (after - before) * (Sys.word_size / 8) in
  check "engine advanced" true (FloodEngine.now e > 0.0);
  check "no quadratic engine memory (< 16 MB live)" true (delta_bytes < 16 * 1024 * 1024)

let test_engine_deterministic () =
  let graph = Gen.grid ~rows:3 ~cols:3 in
  let run () =
    let e = run_flood ~seed:11 ~steps:2000 graph in
    Array.to_list (Array.map (fun (s : Flood.state) -> s.received) (FloodEngine.states e))
  in
  check "same seed, same execution" true (run () = run ())

let test_engine_seed_changes_execution () =
  let graph = Gen.grid ~rows:3 ~cols:3 in
  let run seed =
    let e = run_flood ~seed ~steps:2000 graph in
    Array.to_list (Array.map (fun (s : Flood.state) -> s.received) (FloodEngine.states e))
  in
  check "different seed, different execution" true (run 1 <> run 2)

let test_engine_rounds_advance () =
  let graph = Gen.ring 5 in
  let e = FloodEngine.create ~seed:3 graph in
  Alcotest.(check int) "starts at round 0" 0 (FloodEngine.rounds e);
  for _ = 1 to 500 do
    ignore (FloodEngine.step e)
  done;
  check "rounds advanced" true (FloodEngine.rounds e > 5);
  check "virtual time advanced" true (FloodEngine.now e > 0.0)

let test_engine_all_nodes_tick () =
  let graph = Gen.ring 5 in
  let e = FloodEngine.create ~seed:3 graph in
  for _ = 1 to 300 do
    ignore (FloodEngine.step e)
  done;
  Array.iter
    (fun (s : Flood.state) -> check "every node ticked" true (s.next > 0))
    (FloodEngine.states e)

let test_engine_messages_flow () =
  let graph = Gen.ring 5 in
  let e = run_flood ~seed:3 ~steps:500 graph in
  Array.iter
    (fun (s : Flood.state) -> check "every node received" true (List.length s.received > 0))
    (FloodEngine.states e);
  check "metrics counted sends" true (Metrics.total_messages (FloodEngine.metrics e) > 0)

let test_engine_run_stop () =
  let graph = Gen.ring 5 in
  let e = FloodEngine.create ~seed:3 graph in
  let outcome =
    FloodEngine.run e ~max_rounds:10_000 ~check_every:1 ~stop:(fun t -> FloodEngine.rounds t >= 50) ()
  in
  check "stopped by predicate" true outcome.converged;
  check "stopped promptly" true (FloodEngine.rounds e < 80)

let test_engine_max_rounds () =
  let graph = Gen.ring 5 in
  let e = FloodEngine.create ~seed:3 graph in
  let outcome = FloodEngine.run e ~max_rounds:30 ~check_every:1 ~stop:(fun _ -> false) () in
  check "did not converge" false outcome.converged;
  check "bounded" true (FloodEngine.rounds e <= 40)

let test_engine_corrupt () =
  let graph = Gen.ring 8 in
  let e = FloodEngine.create ~seed:3 graph in
  let hit = FloodEngine.corrupt e ~fraction:0.5 () in
  check "about half corrupted" true (hit >= 3 && hit <= 5);
  let full = FloodEngine.corrupt e ~fraction:1.0 () in
  Alcotest.(check int) "all corrupted" 8 full

let test_engine_inject_and_in_flight () =
  let graph = Gen.ring 5 in
  let e = FloodEngine.create ~seed:3 graph in
  let injected () = List.mem (0, 1, 424242) (FloodEngine.in_flight e) in
  check "nothing in flight initially" false (injected ());
  FloodEngine.inject e ~src:0 ~dst:1 424242;
  check "injected message visible" true (injected ());
  check "inject rejects non-adjacent" true
    (try
       FloodEngine.inject e ~src:0 ~dst:2 1;
       false
     with Invalid_argument _ -> true)

let test_engine_set_state () =
  let graph = Gen.ring 5 in
  let e = FloodEngine.create ~seed:3 graph in
  FloodEngine.set_state e 2 { Flood.next = 99; received = [] };
  Alcotest.(check int) "set_state visible" 99 (FloodEngine.state e 2).Flood.next

let test_engine_rejects_disconnected () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  check "disconnected rejected" true
    (try
       ignore (FloodEngine.create g);
       false
     with Invalid_argument _ -> true)

(* Causal-depth rounds: a message chain across a path of length L needs at
   least L rounds. *)
module Relay = struct
  type state = { hops : int option }

  type msg = int

  let name = "relay"

  let init _ = { hops = None }

  let random_state _ _ = { hops = None }

  let random_msg _ _ = None

  let on_tick ctx st =
    (* Only node 0 fires, once. *)
    if ctx.Node.id = 0 && st.hops = None then begin
      Array.iter (fun nb -> if nb > ctx.Node.node then ctx.Node.send nb 1) ctx.Node.neighbors;
      { hops = Some 0 }
    end
    else st

  let on_message ctx st ~src:_ h =
    if st.hops = None then begin
      Array.iter (fun nb -> if nb > ctx.Node.node then ctx.Node.send nb (h + 1)) ctx.Node.neighbors;
      { hops = Some h }
    end
    else st

  let msg_label _ = "relay"

  let msg_bits ~n:_ _ = 8

  let state_bits ~n:_ _ = 8
end

module RelayEngine = Mdst_sim.Pengine.Make (Relay)

let test_engine_observer () =
  let graph = Gen.ring 5 in
  let e = FloodEngine.create ~seed:3 graph in
  let ticks = ref 0 and delivers = ref 0 in
  FloodEngine.observe e (function
    | Mdst_sim.Pengine.Obs_tick _ -> incr ticks
    | Mdst_sim.Pengine.Obs_deliver { label; _ } ->
        Alcotest.(check string) "label" "flood" label;
        incr delivers
    | Mdst_sim.Pengine.Obs_fault _ -> Alcotest.fail "no faults installed");
  for _ = 1 to 400 do
    ignore (FloodEngine.step e)
  done;
  check "ticks observed" true (!ticks > 0);
  check "deliveries observed" true (!delivers > 0);
  Alcotest.(check int) "every event observed" 400 (!ticks + !delivers);
  FloodEngine.unobserve e;
  let before = !ticks + !delivers in
  for _ = 1 to 50 do
    ignore (FloodEngine.step e)
  done;
  Alcotest.(check int) "observer detached" before (!ticks + !delivers)

(* ---------------- Trace ---------------- *)

module Trace = Mdst_sim.Trace

let test_trace_records_and_filters () =
  let graph = Gen.ring 5 in
  let e = FloodEngine.create ~seed:3 graph in
  let trace = Trace.create ~keep:(fun _ -> true) () in
  FloodEngine.observe e (Trace.record trace);
  for _ = 1 to 200 do
    ignore (FloodEngine.step e)
  done;
  Alcotest.(check int) "everything recorded" 200 (Trace.recorded trace);
  let labels = Trace.counts_by_label trace in
  check "flood label counted" true (List.mem_assoc "flood" labels);
  let only_msgs = Trace.create () in
  (* default filter keeps non-info deliveries only *)
  Trace.record only_msgs (Mdst_sim.Pengine.Obs_tick { node = 0; round = 1; time = 0.0 });
  Alcotest.(check int) "ticks filtered" 0 (Trace.recorded only_msgs);
  Trace.record only_msgs
    (Mdst_sim.Pengine.Obs_deliver { src = 0; dst = 1; label = "info"; round = 1; time = 0.0 });
  Alcotest.(check int) "info filtered" 0 (Trace.recorded only_msgs);
  Trace.record only_msgs
    (Mdst_sim.Pengine.Obs_deliver { src = 0; dst = 1; label = "search"; round = 1; time = 0.0 });
  Alcotest.(check int) "protocol msg kept" 1 (Trace.recorded only_msgs)

let test_trace_ring_eviction () =
  let trace = Trace.create ~capacity:4 ~keep:(fun _ -> true) () in
  for i = 1 to 10 do
    Trace.record trace
      (Mdst_sim.Pengine.Obs_deliver { src = i; dst = 0; label = "m"; round = i; time = 0.0 })
  done;
  Alcotest.(check int) "all recorded" 10 (Trace.recorded trace);
  let evs = Trace.events trace in
  Alcotest.(check int) "only capacity retained" 4 (List.length evs);
  (match List.hd evs with
  | Mdst_sim.Pengine.Obs_deliver { src; _ } -> Alcotest.(check int) "oldest retained is #7" 7 src
  | _ -> Alcotest.fail "unexpected event");
  check "render limit" true
    (String.length (Trace.render ~limit:2 trace) < String.length (Trace.render trace));
  Trace.clear trace;
  Alcotest.(check int) "cleared" 0 (List.length (Trace.events trace))

let test_rounds_reflect_causal_depth () =
  let n = 12 in
  let graph = Gen.path n in
  let e = RelayEngine.create ~seed:2 graph in
  let outcome =
    RelayEngine.run e ~max_rounds:10_000 ~check_every:1
      ~stop:(fun t -> (RelayEngine.state t (n - 1)).Relay.hops <> None)
      ()
  in
  check "chain completed" true outcome.converged;
  (* The chain is n-1 messages deep, so at least n-1 rounds must have
     elapsed by the causal-depth definition. *)
  check "rounds >= chain depth" true (RelayEngine.rounds e >= n - 1)

(* ---------------- Latency lookahead ---------------- *)

let test_latency_min_delay () =
  (* The parallel engine's conservative lookahead is exactly min_delay: a
     zero or negative value would deadlock or unsound-execute the shards,
     and the uniform default's 0.5 floor is what the shipped BENCH numbers
     were measured under. *)
  Alcotest.(check (float 0.0)) "uniform default floor" 0.5
    (Latency.min_delay (Latency.by_name "uniform" 3));
  Alcotest.(check (float 0.0)) "constant" 2.0 (Latency.min_delay (Latency.constant 2.0));
  List.iter
    (fun name ->
      check (name ^ " lookahead positive") true (Latency.min_delay (Latency.by_name name 3) > 0.0))
    Latency.names;
  (* min_delay must actually bound the samples. *)
  let rng = Prng.create 17 in
  List.iter
    (fun name ->
      let m = Latency.by_name name 9 in
      let d = Latency.min_delay m in
      for _ = 1 to 200 do
        check (name ^ " sample >= min_delay") true (Latency.sample m rng ~src:0 ~dst:1 >= d)
      done)
    Latency.names

(* ---------------- Shard scaffolding ---------------- *)

module Shard = Mdst_sim.Shard

let test_shard_key_roundtrip () =
  let cases =
    [ (0, 0); (1, 0); (0, 1); (37, 12345); (Shard.max_shards - 1, (1 lsl Shard.seq_bits) - 1) ]
  in
  List.iter
    (fun (shard, seq) ->
      let k = Shard.key ~shard ~seq in
      Alcotest.(check int) "shard survives" shard (Shard.key_shard k);
      Alcotest.(check int) "seq survives" seq (Shard.key_seq k);
      check "key non-negative" true (k >= 0))
    cases

let test_shard_key_order () =
  (* Int comparison on keys = lexicographic (shard, seq): the heap's
     tie-break relies on it. *)
  check "same shard, seq orders" true (Shard.key ~shard:3 ~seq:5 < Shard.key ~shard:3 ~seq:6);
  check "shard dominates seq" true
    (Shard.key ~shard:2 ~seq:((1 lsl Shard.seq_bits) - 1) < Shard.key ~shard:3 ~seq:0)

let test_shard_clocks () =
  let c = Shard.Clocks.create 2 in
  Alcotest.(check (float 0.0)) "starts at 0" 0.0 (Shard.Clocks.get c 0);
  Shard.Clocks.advance c 0 1.5;
  Alcotest.(check (float 0.0)) "advances" 1.5 (Shard.Clocks.get c 0);
  Shard.Clocks.advance c 0 1.0;
  Alcotest.(check (float 0.0)) "never moves backwards" 1.5 (Shard.Clocks.get c 0);
  (* Regression: clocks at or above virtual time 2.0 (IEEE payload bit 62)
     must keep advancing — an int-packed representation silently dropped
     every publish past 2.0 and the shards deadlocked. *)
  List.iter
    (fun v ->
      Shard.Clocks.advance c 1 v;
      Alcotest.(check (float 0.0)) (Printf.sprintf "reaches %g" v) v (Shard.Clocks.get c 1))
    [ 1.9; 2.0; 2.5; 1024.0; 1e9 ];
  check "negative rejected" true
    (try
       Shard.Clocks.advance c 0 (-1.0);
       false
     with Invalid_argument _ -> true);
  Shard.Clocks.infinity_ c 0;
  check "poisoned clock is infinite" true (Shard.Clocks.get c 0 = infinity)

let test_shard_in_shards () =
  (* Path 0-1-2-3 split into pairs: only the middle edge crosses. *)
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  let adj = Shard.in_shards g [| 0; 0; 1; 1 |] ~k:2 in
  check "0 watches 1" true (adj.(0) = [| 1 |]);
  check "1 watches 0" true (adj.(1) = [| 0 |]);
  (* All in one shard: nothing to watch. *)
  let adj1 = Shard.in_shards g [| 0; 0; 0; 0 |] ~k:1 in
  check "no peers at k=1" true (adj1.(0) = [||])

let () =
  Alcotest.run "sim"
    [
      ( "latency",
        [
          Alcotest.test_case "positive everywhere" `Quick test_latency_positive;
          Alcotest.test_case "constant" `Quick test_latency_constant;
          Alcotest.test_case "slow links deterministic" `Quick test_latency_slow_links_deterministic;
          Alcotest.test_case "unknown raises" `Quick test_latency_unknown;
          Alcotest.test_case "uniform bounds" `Quick test_latency_uniform_bounds;
          Alcotest.test_case "exponential mean" `Quick test_latency_exponential_mean;
          Alcotest.test_case "node skew per receiver" `Quick test_latency_node_skew_is_per_receiver;
          Alcotest.test_case "min_delay bounds samples" `Quick test_latency_min_delay;
        ] );
      ( "shard",
        [
          Alcotest.test_case "key roundtrip" `Quick test_shard_key_roundtrip;
          Alcotest.test_case "key lexicographic order" `Quick test_shard_key_order;
          Alcotest.test_case "clocks monotone, no 2.0 cliff" `Quick test_shard_clocks;
          Alcotest.test_case "cross-shard adjacency" `Quick test_shard_in_shards;
        ] );
      ("metrics", [ Alcotest.test_case "accounting" `Quick test_metrics ]);
      ( "engine",
        [
          Alcotest.test_case "fifo under reordering latency" `Quick test_engine_fifo;
          Alcotest.test_case "scales without quadratic memory" `Quick test_engine_scales_without_quadratic_memory;
          Alcotest.test_case "deterministic per seed" `Quick test_engine_deterministic;
          Alcotest.test_case "seed changes execution" `Quick test_engine_seed_changes_execution;
          Alcotest.test_case "rounds advance" `Quick test_engine_rounds_advance;
          Alcotest.test_case "all nodes tick" `Quick test_engine_all_nodes_tick;
          Alcotest.test_case "messages flow + metrics" `Quick test_engine_messages_flow;
          Alcotest.test_case "run stops on predicate" `Quick test_engine_run_stop;
          Alcotest.test_case "run respects max_rounds" `Quick test_engine_max_rounds;
          Alcotest.test_case "corrupt counts" `Quick test_engine_corrupt;
          Alcotest.test_case "inject + in_flight" `Quick test_engine_inject_and_in_flight;
          Alcotest.test_case "set_state" `Quick test_engine_set_state;
          Alcotest.test_case "rejects disconnected" `Quick test_engine_rejects_disconnected;
          Alcotest.test_case "observer hook" `Quick test_engine_observer;
          Alcotest.test_case "rounds = causal depth" `Quick test_rounds_reflect_causal_depth;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records and filters" `Quick test_trace_records_and_filters;
          Alcotest.test_case "ring eviction" `Quick test_trace_ring_eviction;
        ] );
    ]
