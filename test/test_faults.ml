(* The fault-injection layer: engine semantics under a toy automaton,
   exact-replay regressions for the real protocol, and the acceptance
   self-check that the PBT harness catches a deliberately broken variant. *)

module Graph = Mdst_graph.Graph
module Gen = Mdst_graph.Gen
module Node = Mdst_sim.Node
module Fault = Mdst_sim.Fault
module Latency = Mdst_sim.Latency
module Prng = Mdst_util.Prng

let check = Alcotest.(check bool)

(* ---------------- toy automaton ----------------

   Every tick each node sends a per-node strictly increasing counter to all
   neighbours, so FIFO delivery is observable as monotonicity.  [boots]
   marks how the state was (re)installed and [random_msg] returns a marker
   value, so crash-restart and corruption are observable too. *)

let corrupt_marker = 424242

module Count = struct
  type state = { boots : int; sent : int; from : (int * int) list (* src, value; newest first *) }

  type msg = int

  let name = "count"

  let init _ = { boots = 0; sent = 0; from = [] }

  let random_state _ _ = { boots = 999; sent = 0; from = [] }

  let random_msg _ _ = Some corrupt_marker

  let on_tick ctx st =
    Array.iter (fun nb -> ctx.Node.send nb st.sent) ctx.Node.neighbors;
    { st with sent = st.sent + 1 }

  let on_message _ st ~src v = { st with from = (src, v) :: st.from }

  let msg_label v = if v = corrupt_marker then "corrupt" else "ping"

  let msg_bits ~n:_ _ = 8

  let state_bits ~n:_ _ = 8
end

module E = Mdst_sim.Pengine.Make (Count)

(* A mute automaton: the only traffic is what the test injects, so delivery
   counts and arrival times can be asserted exactly. *)
module Silent = struct
  type state = (int * float) list (* value, arrival time; newest first *)

  type msg = int

  let name = "silent"

  let init _ = []

  let random_state _ _ = []

  let random_msg _ _ = None

  let on_tick _ st = st

  let on_message ctx st ~src:_ v = (v, ctx.Node.now ()) :: st

  let msg_label _ = "m"

  let msg_bits ~n:_ _ = 8

  let state_bits ~n:_ _ = 8
end

module S = Mdst_sim.Pengine.Make (Silent)

let path3 () = Graph.of_edges ~n:3 [ (0, 1); (1, 2) ]

let run_with ?(graph = path3 ()) ?(init = `Clean) ?(rounds = 60) plan =
  let e = E.create ~seed:17 ~init graph in
  E.install_faults e (Fault.of_string plan);
  ignore (E.run e ~max_rounds:rounds ~check_every:1 ~stop:(fun _ -> false) ());
  e

(* Arrival order (oldest first) of the values [dst] received from [src]. *)
let received e ~src ~dst =
  List.rev
    (List.filter_map
       (fun (s, v) -> if s = src then Some v else None)
       (E.state e dst).Count.from)

let rec strictly_increasing = function
  | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
  | _ -> true

(* ---------------- channel faults ---------------- *)

let test_drop_everything () =
  let e = run_with "seed=1|drop:0-100000:0>1:1" in
  Alcotest.(check (list int)) "channel 0>1 silenced" [] (received e ~src:0 ~dst:1);
  check "reverse channel alive" true (received e ~src:1 ~dst:0 <> []);
  check "other channel alive" true (received e ~src:2 ~dst:1 <> []);
  check "drops counted" true ((E.fault_stats e).Fault.drops > 0)

let test_drop_window_closes () =
  let e = run_with "seed=1|drop:0-10:0>1:1" in
  let vals = received e ~src:0 ~dst:1 in
  check "traffic resumes after the window" true (vals <> []);
  check "earliest values lost inside the window" false (List.mem 0 vals)

let test_duplicate () =
  let base = run_with "seed=1" in
  let e = run_with "seed=1|dup:0-100000:0>1:1:2" in
  let vals = received e ~src:0 ~dst:1 in
  check "more deliveries than the fault-free run" true
    (List.length vals > List.length (received base ~src:0 ~dst:1));
  check "some value delivered at least twice" true
    (List.length vals > List.length (List.sort_uniq compare vals));
  check "duplicates counted" true ((E.fault_stats e).Fault.duplicates > 0)

let test_duplicate_exact_copies () =
  (* [copies = k] means exactly k EXTRA deliveries: the original plus k
     duplicates, pinned here with a mute automaton so nothing else rides
     the channel (documented in fault.mli). *)
  let e = S.create ~seed:17 (path3 ()) in
  S.install_faults e (Fault.of_string "seed=1|dup:0-100000:0>1:1:2");
  S.inject e ~src:0 ~dst:1 777;
  S.inject e ~src:0 ~dst:1 888;
  ignore (S.run e ~max_rounds:30 ~check_every:1 ~stop:(fun _ -> false) ());
  let got = List.map fst (S.state e 1) in
  let count v = List.length (List.filter (( = ) v) got) in
  Alcotest.(check int) "first send: copies+1 deliveries" 3 (count 777);
  Alcotest.(check int) "second send: copies+1 deliveries" 3 (count 888);
  Alcotest.(check int) "total deliveries" 6 (List.length got);
  Alcotest.(check int) "one dup event per tampered send" 2 (S.fault_stats e).Fault.duplicates

let test_corrupt () =
  let e = run_with "seed=1|corrupt:0-100000:0>1:1" in
  let vals = received e ~src:0 ~dst:1 in
  check "payloads replaced by random_msg" true
    (vals <> [] && List.for_all (fun v -> v = corrupt_marker) vals);
  check "other channel untouched" true
    (List.for_all (fun v -> v <> corrupt_marker) (received e ~src:2 ~dst:1));
  check "corruptions counted" true ((E.fault_stats e).Fault.corruptions > 0)

let test_corrupt_channels_same_schedule () =
  (* Regression: [corrupt ~channels:true] used to draw its injected
     payloads and their latencies from the engine's own PRNG, shifting
     every later tick/latency draw.  Each victim now owns a split stream,
     so the post-corruption schedule of ORGANIC traffic is identical
     whether or not channel corruption was requested. *)
  let run channels =
    let e = E.create ~seed:33 (Gen.ring 8) in
    ignore (E.run e ~max_rounds:20 ~check_every:1 ~stop:(fun _ -> false) ());
    let nvictims = E.corrupt e ~fraction:0.25 ~channels () in
    let sched = ref [] in
    E.observe e (function
      | Mdst_sim.Pengine.Obs_deliver { src; dst; label = "ping"; time; _ } ->
          sched := (src, dst, time) :: !sched
      | _ -> ());
    ignore (E.run e ~max_rounds:60 ~check_every:1 ~stop:(fun _ -> false) ());
    let victims =
      List.filteri (fun i _ -> (E.state e i).Count.boots = 999)
        (List.init (Graph.n (E.graph e)) Fun.id)
    in
    (nvictims, victims, List.rev !sched)
  in
  let n_a, v_a, sched_a = run false in
  let n_b, v_b, sched_b = run true in
  Alcotest.(check int) "same victim count" n_a n_b;
  check "same victims" true (v_a = v_b);
  check "victims exist" true (v_a <> []);
  check "post-corruption organic schedule identical" true (sched_a = sched_b)

let test_fault_detail_formatting () =
  (* Fault observations are built lazily on the hot path; pin that the
     rendered labels did not change shape. *)
  let e = E.create ~seed:17 (path3 ()) in
  E.install_faults e (Fault.of_string "seed=1|dup:0-100000:0>1:1:2|crash:5:2:init");
  let seen = ref [] in
  E.observe e (function
    | Mdst_sim.Pengine.Obs_fault { kind; detail; _ } -> seen := (kind, detail) :: !seen
    | _ -> ());
  ignore (E.run e ~max_rounds:20 ~check_every:1 ~stop:(fun _ -> false) ());
  check "dup detail names channel and copies" true (List.mem ("dup", "0>1 x2") !seen);
  check "crash detail names node and mode" true (List.mem ("crash", "2 init") !seen)

let test_reorder_breaks_fifo () =
  let e = run_with ~rounds:200 "seed=1|reorder:0-100000:0>1:0.5:8" in
  check "reorders counted" true ((E.fault_stats e).Fault.reorders > 0);
  check "FIFO violated on the tampered channel" false
    (strictly_increasing (received e ~src:0 ~dst:1));
  check "FIFO intact elsewhere" true (strictly_increasing (received e ~src:2 ~dst:1))

(* ---------------- scheduled faults ---------------- *)

let test_crash_reinit () =
  let e = run_with ~init:`Random "seed=1|crash:5:1:init" in
  Alcotest.(check int) "crashed node rebooted via init" 0 (E.state e 1).Count.boots;
  Alcotest.(check int) "other nodes keep their adversarial state" 999 (E.state e 0).Count.boots;
  Alcotest.(check int) "one crash" 1 (E.fault_stats e).Fault.crashes

let test_cut_edge () =
  let e = run_with ~graph:(Gen.ring 4) "seed=1|cut:3:0-1" in
  check "edge removed" false (Graph.mem_edge (E.graph e) 0 1);
  check "still connected" true (Mdst_graph.Algo.is_connected (E.graph e));
  Alcotest.(check int) "one cut" 1 (E.fault_stats e).Fault.cuts

let test_cut_bridge_skipped () =
  let e = run_with "seed=1|cut:3:0-1" in
  check "bridge survives" true (Graph.mem_edge (E.graph e) 0 1);
  Alcotest.(check int) "no cut" 0 (E.fault_stats e).Fault.cuts;
  Alcotest.(check int) "skip recorded" 1 (E.fault_stats e).Fault.skipped

let test_link_edge () =
  let e = run_with "seed=1|link:3:0-2" in
  check "edge added" true (Graph.mem_edge (E.graph e) 0 2);
  check "new channel carries traffic" true (received e ~src:2 ~dst:0 <> []);
  Alcotest.(check int) "one link" 1 (E.fault_stats e).Fault.links

let test_link_existing_skipped () =
  let e = run_with "seed=1|link:3:0-1" in
  Alcotest.(check int) "no link" 0 (E.fault_stats e).Fault.links;
  Alcotest.(check int) "skip recorded" 1 (E.fault_stats e).Fault.skipped

(* ---------------- observations, determinism, drift ---------------- *)

let test_fault_observations () =
  let graph = Gen.ring 4 in
  let e = E.create ~seed:17 graph in
  E.install_faults e (Fault.of_string "seed=1|drop:0-40:0>1:1|crash:5:2:init|cut:3:0-1|link:3:0-2|link:4:0-2");
  let seen = ref 0 in
  E.observe e (function Mdst_sim.Pengine.Obs_fault _ -> incr seen | _ -> ());
  ignore (E.run e ~max_rounds:60 ~check_every:1 ~stop:(fun _ -> false) ());
  let s = E.fault_stats e in
  Alcotest.(check int) "every fault action observed (skips included)"
    (Fault.total s + s.Fault.skipped) !seen;
  Alcotest.(check int) "second link skipped" 1 s.Fault.skipped

(* [run] without [check_every] advances by windows; scheduled events must
   still fire at their round, as they do event by event. *)
let test_scheduled_faults_in_windows () =
  let faults check_every =
    let e = E.create ~seed:17 (Gen.ring 4) in
    E.install_faults e (Fault.of_string "seed=1|crash:5:2:init|cut:3:0-1|link:4:0-2");
    let seen = ref [] in
    E.observe e (function Mdst_sim.Pengine.Obs_fault _ as o -> seen := o :: !seen | _ -> ());
    ignore (E.run e ~max_rounds:40 ?check_every ~stop:(fun _ -> false) ());
    check "nothing left pending" false (E.faults_pending e);
    (E.fault_stats e, List.rev !seen)
  in
  let stats, seen = faults None in
  Alcotest.(check int) "crash, cut and link fired" 3 (Fault.total stats);
  check "same rounds and times as event by event" true ((stats, seen) = faults (Some 1))

let test_fault_determinism () =
  let snapshot () =
    let e = run_with ~graph:(Gen.ring 5) ~rounds:120 "seed=9|drop:0-50:0>1:0.5|crash:30:2:random|cut:10:0-1" in
    Array.to_list (Array.map (fun (s : Count.state) -> s.Count.from) (E.states e))
  in
  check "same plan + seed, same execution" true (snapshot () = snapshot ())

let test_empty_plan_no_drift () =
  (* Installing a plan must not touch the engine's own PRNG: a plan whose
     window never opens leaves the execution byte-identical. *)
  let snapshot plan =
    let e = E.create ~seed:23 ~init:`Random (Gen.ring 5) in
    Option.iter (fun p -> E.install_faults e (Fault.of_string p)) plan;
    ignore (E.run e ~max_rounds:80 ~check_every:1 ~stop:(fun _ -> false) ());
    Array.to_list (Array.map (fun (s : Count.state) -> s.Count.from) (E.states e))
  in
  check "no plan vs empty plan" true (snapshot None = snapshot (Some "seed=5"));
  check "no plan vs never-active plan" true
    (snapshot None = snapshot (Some "seed=5|drop:500000-500001:0>1:1"))

(* ---------------- ad-hoc primitives ---------------- *)

let test_purge_channel () =
  let e = E.create ~seed:3 (path3 ()) in
  E.inject e ~src:0 ~dst:1 7;
  E.inject e ~src:0 ~dst:1 8;
  E.inject e ~src:1 ~dst:2 9;
  Alcotest.(check int) "purged the ordered channel only" 2 (E.purge_channel e ~src:0 ~dst:1);
  Alcotest.(check int) "idempotent" 0 (E.purge_channel e ~src:0 ~dst:1);
  Alcotest.(check int) "other channel intact" 1 (E.purge_channel e ~src:1 ~dst:2)

let test_purge_keeps_fifo_floor () =
  (* Pinned semantics (fault.mli, engine.mli): purging a channel KEEPS its
     FIFO floor, so later traffic still arrives strictly after the lost
     messages would have.  With constant latency 5.0 the purged message
     fixed the floor at 5.0; the next send's raw arrival is also 5.0 and
     must be nudged strictly past it. *)
  let e = S.create ~latency:(Latency.constant 5.0) ~seed:3 (path3 ()) in
  S.inject e ~src:0 ~dst:1 7;
  Alcotest.(check int) "one message purged" 1 (S.purge_channel e ~src:0 ~dst:1);
  S.inject e ~src:0 ~dst:1 8;
  ignore (S.run e ~max_rounds:10 ~check_every:1 ~stop:(fun _ -> false) ());
  match S.state e 1 with
  | [ (v, at) ] ->
      Alcotest.(check int) "only the second message arrives" 8 v;
      check "arrival strictly after the purged message's floor" true (at > 5.0);
      check "nudged by epsilon, not rescheduled" true (at < 5.001)
  | got -> Alcotest.failf "expected exactly one delivery, got %d" (List.length got)

let test_reset_node () =
  let e = E.create ~seed:3 (path3 ()) in
  E.reset_node e `Random 1;
  Alcotest.(check int) "random_state installed" 999 (E.state e 1).Count.boots;
  E.reset_node e `Init 1;
  Alcotest.(check int) "init reinstalled" 0 (E.state e 1).Count.boots

let test_reshape () =
  let e = E.create ~seed:3 (path3 ()) in
  ignore (E.run e ~max_rounds:10 ~check_every:1 ~stop:(fun _ -> false) ());
  E.reshape e (Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ]);
  check "triangle installed" true (Graph.mem_edge (E.graph e) 0 2);
  ignore (E.run e ~max_rounds:30 ~check_every:1 ~stop:(fun _ -> false) ());
  check "new channel live after reshape" true (received e ~src:2 ~dst:0 <> []);
  Alcotest.check_raises "node-count mismatch rejected"
    (Invalid_argument "Pengine.reshape: node count must be preserved") (fun () ->
      E.reshape e (Gen.ring 4));
  Alcotest.check_raises "disconnected replacement rejected"
    (Invalid_argument "Pengine.reshape: graph must stay connected") (fun () ->
      E.reshape e (Graph.of_edges ~n:3 [ (0, 1) ]))

(* ---------------- exact-replay regression matrix ----------------

   Pinned end-to-end outcomes for the real protocol under fixed
   (topology, plan, seed) triples.  Any change to the engine's event
   ordering, the fault interpreter or the protocol shifts these numbers —
   that is the point: fault executions must replay bit-identically. *)

module C = Mdst_check.Convergence

let matrix =
  [
    ( "ring8 drop+crash",
      "n=8;edges=0-1,1-2,2-3,3-4,4-5,5-6,6-7,0-7;seed=5;plan=seed=2|drop:0-80:0>1:0.5|crash:60:3:random",
      (* rounds, degree, drops+corruptions+cuts, crashes+reorders+links *)
      (124, 2, 47, 1) );
    ( "petersen cut+link",
      "n=10;edges=0-1,1-2,2-3,3-4,0-4,0-5,1-6,2-7,3-8,4-9,5-7,7-9,9-6,6-8,8-5;seed=9;plan=seed=4|cut:40:0-1|link:90:0-2",
      (140, 3, 1, 1) );
    ( "grid9 corrupt+reorder",
      "n=9;edges=0-1,1-2,3-4,4-5,6-7,7-8,0-3,3-6,1-4,4-7,2-5,5-8;seed=13;plan=seed=8|corrupt:0-60:4>1:0.75|reorder:0-120:1>4:0.5:6",
      (134, 2, 50, 63) );
    (* the cut that exposed the stop-check vs scheduled-fault race *)
    ( "n7 cut race",
      "n=7;ids=5,1,3,4,0,7,2;edges=0-1,0-5,1-4,2-5,2-6,3-4,4-6;seed=341458;plan=seed=711241|cut:208:2-5",
      (276, 3, 1, 0) );
  ]

let test_fault_matrix () =
  List.iter
    (fun (label, case_line, (rounds, degree, a, b)) ->
      let r = C.Default.run_case (C.case_of_string case_line) in
      check (label ^ ": converged") true r.C.converged;
      check (label ^ ": closure") true r.C.closure_ok;
      Alcotest.(check int) (label ^ ": exact rounds") rounds r.C.rounds;
      Alcotest.(check (option int)) (label ^ ": exact degree") (Some degree) r.C.degree;
      Alcotest.(check int) (label ^ ": fault count a") a
        (r.C.stats.Fault.drops + r.C.stats.Fault.corruptions + r.C.stats.Fault.cuts);
      Alcotest.(check int) (label ^ ": fault count b") b
        (r.C.stats.Fault.crashes + r.C.stats.Fault.reorders + r.C.stats.Fault.links))
    matrix

(* ---------------- acceptance: the harness catches a broken variant ---- *)

let small_budget = { C.settle_rounds = 1500; per_node_rounds = 150; closure_rounds = 60 }

let test_broken_variant_caught () =
  let module P = Mdst_check.Property in
  let property =
    C.Broken.property ~budget:small_budget ~min_n:4 ~max_n:10 ~max_events:5 ~horizon:300 ()
  in
  match P.check ~tests:20 ~seed:7 property with
  | P.Passed _ -> Alcotest.fail "grant-dropping variant must be falsified"
  | P.Falsified c ->
      let case = C.case_of_string c.P.printed in
      check "shrunk to at most 8 nodes" true (Graph.n case.C.graph <= 8);
      check "shrunk to at most 5 fault events" true
        (List.length case.C.plan.Fault.events <= 5);
      (* The printed reproducer replays to the same verdict from its seed. *)
      (match C.Broken.prop ~budget:small_budget () case with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "reproducer did not replay the failure");
      (* Each Broken call puts the previously active mutants back. *)
      let module Mutation = Mdst_util.Mutation in
      check "grant-drop off after the run" false (Mutation.enabled "grant-drop");
      Fun.protect ~finally:(fun () -> Mutation.force None) (fun () ->
          Mutation.force (Some [ "stop-check-race" ]);
          ignore (C.Broken.prop ~budget:small_budget () case);
          check "forced mutant kept" true (Mutation.enabled "stop-check-race");
          check "grant-drop off again" false (Mutation.enabled "grant-drop"));
      (* The real protocol is fine on the very same case. *)
      match C.Default.prop ~budget:small_budget () case with
      | Ok () -> ()
      | Error reason -> Alcotest.fail ("real protocol failed the shrunk case: " ^ reason)

let test_honest_protocol_passes () =
  let module P = Mdst_check.Property in
  let property = C.Default.property ~min_n:4 ~max_n:9 ~max_events:4 ~horizon:250 () in
  match P.check ~tests:15 ~seed:7 property with
  | P.Passed _ -> ()
  | P.Falsified c -> Alcotest.fail (P.render ~name:property.P.name c)

let () =
  Alcotest.run "faults"
    [
      ( "channel",
        [
          Alcotest.test_case "drop everything" `Quick test_drop_everything;
          Alcotest.test_case "drop window closes" `Quick test_drop_window_closes;
          Alcotest.test_case "duplicate" `Quick test_duplicate;
          Alcotest.test_case "duplicate exact copies" `Quick test_duplicate_exact_copies;
          Alcotest.test_case "corrupt" `Quick test_corrupt;
          Alcotest.test_case "corrupt channels same schedule" `Quick test_corrupt_channels_same_schedule;
          Alcotest.test_case "fault detail formatting" `Quick test_fault_detail_formatting;
          Alcotest.test_case "reorder breaks fifo" `Quick test_reorder_breaks_fifo;
        ] );
      ( "scheduled",
        [
          Alcotest.test_case "crash reinit" `Quick test_crash_reinit;
          Alcotest.test_case "cut edge" `Quick test_cut_edge;
          Alcotest.test_case "cut bridge skipped" `Quick test_cut_bridge_skipped;
          Alcotest.test_case "link edge" `Quick test_link_edge;
          Alcotest.test_case "link existing skipped" `Quick test_link_existing_skipped;
        ] );
      ( "engine",
        [
          Alcotest.test_case "fault observations" `Quick test_fault_observations;
          Alcotest.test_case "scheduled faults in windows" `Quick test_scheduled_faults_in_windows;
          Alcotest.test_case "determinism" `Quick test_fault_determinism;
          Alcotest.test_case "empty plan no drift" `Quick test_empty_plan_no_drift;
          Alcotest.test_case "purge channel" `Quick test_purge_channel;
          Alcotest.test_case "purge keeps fifo floor" `Quick test_purge_keeps_fifo_floor;
          Alcotest.test_case "reset node" `Quick test_reset_node;
          Alcotest.test_case "reshape" `Quick test_reshape;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "exact-replay fault matrix" `Quick test_fault_matrix;
          Alcotest.test_case "broken variant caught + shrunk" `Slow test_broken_variant_caught;
          Alcotest.test_case "honest protocol passes" `Slow test_honest_protocol_passes;
        ] );
    ]
