(* Tests for the two auxiliary execution substrates added on top of the
   core reproduction: the standalone PIF wave protocol (the paper's cited
   substrate [16,17] for max-degree computation) and the synchronous
   lockstep engine (daemon-independence, experiment E12). *)

module Graph = Mdst_graph.Graph
module Gen = Mdst_graph.Gen
module Tree = Mdst_graph.Tree
module Algo = Mdst_graph.Algo
module Prng = Mdst_util.Prng
module Pif = Mdst_core.Pif

let check = Alcotest.(check bool)

(* ---------------- PIF over a fixed tree ---------------- *)

(* Build a PIF instance over the BFS tree of [graph] aggregating the given
   per-node values with max. *)
let make_pif_modules graph values =
  let tree = Algo.bfs_tree graph ~root:(Graph.min_id_node graph) in
  let module I = struct
    let parent_of id =
      let v = Graph.index_of_id graph id in
      let p = Tree.parent tree v in
      Graph.id graph p

    let value_of id = values.(Graph.index_of_id graph id)

    let combine = max

    let neutral = min_int
  end in
  (module I : Pif.INPUT)

let run_pif ?(init = `Clean) ?(max_rounds = 4000) graph values =
  let input = make_pif_modules graph values in
  let module I = (val input) in
  let module A = Pif.Make (I) in
  let module E = Mdst_sim.Pengine.Make (A) in
  let engine = E.create ~seed:7 ~init graph in
  let root = Graph.min_id_node graph in
  let expected = Array.fold_left max min_int values in
  let stop t = (E.state t root).Pif.result = Some expected in
  let outcome = E.run engine ~max_rounds ~check_every:1 ~stop () in
  (outcome.converged, E.state engine root)

let test_pif_computes_max () =
  let graph = Gen.grid ~rows:3 ~cols:4 in
  let values = Array.init 12 (fun i -> (i * 7) mod 23) in
  let converged, _ = run_pif graph values in
  check "root learns the max" true converged

let test_pif_on_path_and_star () =
  List.iter
    (fun graph ->
      let n = Graph.n graph in
      let values = Array.init n (fun i -> 100 - i) in
      let converged, _ = run_pif graph values in
      check "pif converges" true converged)
    [ Gen.path 9; Gen.star 9; Gen.ring 9 ]

let test_pif_single_node_value () =
  (* The max sits at a deep leaf: the feedback phase must carry it up. *)
  let graph = Gen.path 10 in
  let values = Array.make 10 1 in
  values.(9) <- 77;
  let converged, st = run_pif graph values in
  check "leaf value reaches root" true converged;
  Alcotest.(check (option int)) "result" (Some 77) st.Pif.result

let test_pif_self_stabilizes () =
  (* Arbitrary initial states and garbage in flight: waves flush it. *)
  let graph = Gen.grid ~rows:3 ~cols:3 in
  let values = Array.init 9 (fun i -> i * 3) in
  let converged, _ = run_pif ~init:`Random ~max_rounds:8000 graph values in
  check "recovers from corruption" true converged

let test_pif_repeated_waves_stay_correct () =
  (* After first completion, later waves must keep reporting the same max
     (closure). *)
  let graph = Gen.ring 8 in
  let values = Array.init 8 (fun i -> i) in
  let input = make_pif_modules graph values in
  let module I = (val input) in
  let module A = Pif.Make (I) in
  let module E = Mdst_sim.Pengine.Make (A) in
  let engine = E.create ~seed:3 graph in
  let root = Graph.min_id_node graph in
  let stop t = (E.state t root).Pif.result = Some 7 in
  let o = E.run engine ~max_rounds:4000 ~check_every:1 ~stop () in
  check "first completion" true o.converged;
  for _ = 1 to 20_000 do
    ignore (E.step engine)
  done;
  Alcotest.(check (option int)) "still correct many waves later" (Some 7)
    (E.state engine root).Pif.result

let prop_pif_random_trees =
  QCheck.Test.make ~name:"pif computes max over random trees and values" ~count:25
    QCheck.(pair small_int (int_range 4 16))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Gen.erdos_renyi_connected rng ~n ~p:0.3 in
      let values = Array.init n (fun _ -> Prng.int rng 1000) in
      let converged, _ = run_pif ~max_rounds:6000 g values in
      converged)

(* ---------------- Synchronous engine ---------------- *)

module SyncFlood = Mdst_sim.Pengine.Make (struct
  type state = int list (* received values *)

  type msg = int

  let name = "sync-flood"

  let init _ = []

  let random_state _ rng = [ Mdst_util.Prng.int rng 10 ]

  let random_msg _ rng = Some (Mdst_util.Prng.int rng 10)

  let on_tick ctx st =
    Array.iter (fun nb -> ctx.Mdst_sim.Node.send nb ctx.Mdst_sim.Node.id) ctx.Mdst_sim.Node.neighbors;
    st

  let on_message _ st ~src:_ v = v :: st

  let msg_label _ = "m"

  let msg_bits ~n:_ _ = 4

  let state_bits ~n:_ st = 4 * List.length st
end)

let test_sync_lockstep_delivery () =
  let g = Gen.ring 4 in
  let e = SyncFlood.create ~seed:1 g in
  SyncFlood.sync_round e;
  (* Round 1: everyone ticked and sent; nothing delivered yet. *)
  Array.iter (fun st -> Alcotest.(check int) "no deliveries in round 1" 0 (List.length st))
    (SyncFlood.states e);
  SyncFlood.sync_round e;
  (* Round 2: the round-1 messages arrive — exactly 2 per ring node. *)
  Array.iter (fun st -> Alcotest.(check int) "2 deliveries in round 2" 2 (List.length st))
    (SyncFlood.states e);
  Alcotest.(check int) "round counter" 2 (SyncFlood.rounds e)

let test_sync_deterministic () =
  let g = Gen.grid ~rows:3 ~cols:3 in
  let run () =
    let e = SyncFlood.create ~seed:5 g in
    for _ = 1 to 50 do
      SyncFlood.sync_round e
    done;
    Array.to_list (SyncFlood.states e)
  in
  check "deterministic" true (run () = run ())

let test_sync_corrupt_and_set () =
  let g = Gen.ring 6 in
  let e = SyncFlood.create ~seed:5 g in
  let hit = SyncFlood.corrupt e ~fraction:0.5 () in
  check "some corrupted" true (hit = 3);
  SyncFlood.set_state e 0 [ 9; 9 ];
  Alcotest.(check int) "set_state" 2 (List.length (SyncFlood.state e 0))

let test_sync_rejects_disconnected () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  check "rejects disconnected" true
    (try
       ignore (SyncFlood.create g);
       false
     with Invalid_argument _ -> true)

(* The synchronous daemon is a policy over the engine's eligible set:
   one event at a time or one round at a time, the same execution. *)
let test_sync_step_matches_round () =
  let g = Gen.erdos_renyi_connected (Prng.create 3) ~n:12 ~p:0.3 in
  let module S = Mdst_core.Run.Sim in
  let by_round = Mdst_core.Run.make_engine ~seed:10 ~init:`Random g in
  for _ = 1 to 40 do
    S.sync_round by_round
  done;
  let by_step = Mdst_core.Run.make_engine ~seed:10 ~init:`Random g in
  for _ = 1 to S.events by_round do
    ignore (S.step_sync by_step)
  done;
  Alcotest.(check int) "rounds" 40 (S.rounds by_step);
  check "same states" true (S.states by_round = S.states by_step);
  Alcotest.(check int) "same messages"
    (Mdst_sim.Metrics.total_messages (S.metrics by_round))
    (Mdst_sim.Metrics.total_messages (S.metrics by_step));
  (* Off a round barrier (node 0 ticks into round 41 alone), a round
     finishes the split round and stops at the next barrier. *)
  ignore (S.step_with by_step ~choose:(fun _ -> 0));
  S.sync_round by_step;
  S.sync_round by_round;
  Alcotest.(check int) "split round finished" 41 (S.rounds by_step);
  Alcotest.(check int) "and no event of round 42 ran" (S.events by_round) (S.events by_step)

(* golden/sync_daemon.txt was recorded with the dedicated lockstep engine
   this policy replaced: per ER n=12 graph 0..9 and seed 0..9, from a
   clean start and from the BFS tree at node 0, "graph seed start
   converged fingerprint rounds messages" of a run to the FR fixpoint
   (5,000-round cap), then two flood runs "flood name rounds rounds'
   messages states".  The policy must reproduce every line. *)
let test_sync_matches_lockstep_engine () =
  let lines =
    In_channel.with_open_text "golden/sync_daemon.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  Alcotest.(check int) "pinned lines" 202 (List.length lines);
  List.iter
    (fun line ->
      let got =
        match String.split_on_char ' ' line with
        | [ "flood"; name; rounds; _; _; _ ] ->
            let g = if name = "ring4" then Gen.ring 4 else Gen.grid ~rows:3 ~cols:3 in
            let e = SyncFlood.create ~seed:5 g in
            for _ = 1 to int_of_string rounds do
              SyncFlood.sync_round e
            done;
            let show l = String.concat "," (List.map string_of_int l) in
            Printf.sprintf "flood %s %s %d %d %s" name rounds (SyncFlood.rounds e)
              (Mdst_sim.Metrics.total_messages (SyncFlood.metrics e))
              (String.concat "|" (Array.to_list (Array.map show (SyncFlood.states e))))
        | graph :: seed :: start :: _ ->
            let g = Gen.erdos_renyi_connected (Prng.create (int_of_string graph)) ~n:12 ~p:0.3 in
            let init =
              if start = "clean" then `Clean
              else `Tree (Mdst_graph.Algo.bfs_tree g ~root:0)
            in
            let r =
              Mdst_core.Sync_run.converge ~seed:(int_of_string seed) ~init ~max_rounds:5000
                ~fixpoint:(fun t -> not (Mdst_baseline.Fr.improvable t))
                g
            in
            Printf.sprintf "%s %s %s %b %d %d %d" graph seed start r.converged r.fingerprint
              r.rounds r.total_messages
        | _ -> Alcotest.failf "malformed pin %S" line
      in
      Alcotest.(check string) "pinned run" line got)
    lines

(* ---------------- Protocol under the synchronous daemon ---------------- *)

let fixpoint t = not (Mdst_baseline.Fr.improvable t)

let test_sync_protocol_converges () =
  List.iter
    (fun (name, graph, bound) ->
      let r = Mdst_core.Sync_run.converge ~seed:4 ~init:`Random ~fixpoint graph in
      check (name ^ " converged") true r.converged;
      match r.degree with
      | Some d -> check (name ^ " within bound") true (d <= bound)
      | None -> Alcotest.fail (name ^ ": no tree"))
    [
      ("ring-10", Gen.ring 10, 2);
      ("grid-3x4", Gen.grid ~rows:3 ~cols:4, 3);
      ("wheel-10", Gen.wheel 10, 3);
      ("er-12", Gen.erdos_renyi_connected (Prng.create 3) ~n:12 ~p:0.3, 4);
    ]

let test_sync_async_same_guarantee () =
  (* Differential: both daemons land in [Delta*, Delta*+1]. *)
  List.iter
    (fun seed ->
      let g = Gen.erdos_renyi_connected (Prng.create (seed * 5)) ~n:10 ~p:0.35 in
      let optimum =
        match Mdst_baseline.Exact.solve g with Some e -> e.optimum | None -> Alcotest.fail "exact"
      in
      let a = Mdst_core.Run.converge ~seed ~init:`Random ~fixpoint g in
      let s = Mdst_core.Sync_run.converge ~seed ~init:`Random ~fixpoint g in
      (match a.degree with
      | Some d -> check "async within band" true (d <= optimum + 1)
      | None -> Alcotest.fail "async no tree");
      match s.degree with
      | Some d -> check "sync within band" true (d <= optimum + 1)
      | None -> Alcotest.fail "sync no tree")
    [ 1; 2; 3 ]

let test_sync_protocol_from_tree () =
  let g = Gen.deblock_gadget () in
  let _, parents = Gen.deblock_gadget_tree g in
  let t0 = Tree.of_parents g ~root:0 parents in
  let r = Mdst_core.Sync_run.converge ~seed:2 ~init:(`Tree t0) ~fixpoint g in
  check "gadget resolves under sync daemon too" true r.converged;
  Alcotest.(check (option int)) "degree 3" (Some 3) r.degree

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "pif-sync"
    [
      ( "pif",
        [
          q prop_pif_random_trees;
          Alcotest.test_case "computes max" `Quick test_pif_computes_max;
          Alcotest.test_case "path/star/ring" `Quick test_pif_on_path_and_star;
          Alcotest.test_case "deep leaf value" `Quick test_pif_single_node_value;
          Alcotest.test_case "self-stabilizes" `Quick test_pif_self_stabilizes;
          Alcotest.test_case "closure over many waves" `Quick test_pif_repeated_waves_stay_correct;
        ] );
      ( "sync-engine",
        [
          Alcotest.test_case "lockstep delivery" `Quick test_sync_lockstep_delivery;
          Alcotest.test_case "deterministic" `Quick test_sync_deterministic;
          Alcotest.test_case "corrupt/set_state" `Quick test_sync_corrupt_and_set;
          Alcotest.test_case "rejects disconnected" `Quick test_sync_rejects_disconnected;
          Alcotest.test_case "step and round policies agree" `Quick test_sync_step_matches_round;
          Alcotest.test_case "matches the lockstep engine" `Quick test_sync_matches_lockstep_engine;
        ] );
      ( "sync-protocol",
        [
          Alcotest.test_case "converges on families" `Quick test_sync_protocol_converges;
          Alcotest.test_case "same guarantee as async" `Slow test_sync_async_same_guarantee;
          Alcotest.test_case "deblock gadget" `Quick test_sync_protocol_from_tree;
        ] );
    ]
