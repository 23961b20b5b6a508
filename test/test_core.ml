(* Tests for the protocol library: message metering, local state and
   predicates, the global checker, and end-to-end behaviour of each paper
   module (spanning tree, max degree, cycle search, reduction, deblock) on
   purpose-built topologies. *)

module Graph = Mdst_graph.Graph
module Gen = Mdst_graph.Gen
module Tree = Mdst_graph.Tree
module Prng = Mdst_util.Prng
module Intset = Mdst_util.Intset
module Node = Mdst_sim.Node
module State = Mdst_core.State
module Msg = Mdst_core.Msg
module Checker = Mdst_core.Checker
module Run = Mdst_core.Run

let check = Alcotest.(check bool)

let fixpoint t = not (Mdst_baseline.Fr.improvable t)

(* A fabricated ctx for unit-testing State in isolation. *)
let make_ctx ?(n = 8) ~id ~neighbor_ids () =
  {
    Node.node = id;
    id;
    n;
    neighbors = Array.of_list (List.map (fun x -> x) neighbor_ids);
    neighbor_ids = Array.of_list neighbor_ids;
    send = (fun _ _ -> ());
    note_suppressed = (fun _ -> ());
    rng = Prng.create 1;
    now = (fun () -> 0.0);
  }

(* ---------------- Msg ---------------- *)

let test_msg_labels () =
  let entry = { Msg.e_id = 1; e_deg = 2; e_dist = 3 } in
  let cases =
    [
      ( Msg.Info
          {
            i_root = 0; i_parent = 0; i_dist = 0; i_deg = 1; i_dmax = 2; i_color = false;
            i_subtree_max = 1;
          },
        "info" );
      (Msg.Search { s_edge = (0, 1); s_idblock = None; s_stack = [ entry ]; s_visited = Intset.singleton 0 }, "search");
      (Msg.Swap_req { r_edge = (0, 1); r_target = (2, 3); r_deg_max = 4; r_segment = [ 0 ] }, "swap-req");
      (Msg.Remove { m_edge = (0, 1); m_target = (2, 3); m_deg_max = 4; m_segment = [ 0 ] }, "remove");
      (Msg.Grant { g_edge = (0, 1); g_target = (2, 3); g_deg_max = 4; g_segment = [ 0 ] }, "grant");
      (Msg.Reverse { v_edge = (0, 1); v_dist = 2; v_segment = [ 0 ] }, "reverse");
      (Msg.Update_dist { u_dist = 1; u_ttl = 4 }, "update-dist");
      (Msg.Deblock { d_idblock = 3; d_ttl = 2 }, "deblock");
    ]
  in
  List.iter (fun (m, l) -> Alcotest.(check string) l l (Msg.label m)) cases

let test_msg_bits_grow_with_path () =
  let entry i = { Msg.e_id = i; e_deg = 2; e_dist = i } in
  let mk k =
    Msg.Search
      {
        s_edge = (0, 1);
        s_idblock = None;
        s_stack = List.init k entry;
        s_visited = Intset.of_list (List.init k Fun.id);
      }
  in
  check "longer path costs more bits" true (Msg.bits ~n:32 (mk 10) > Msg.bits ~n:32 (mk 2));
  check "info is small" true
    (Msg.bits ~n:32
       (Msg.Info
          {
            i_root = 0; i_parent = 0; i_dist = 0; i_deg = 1; i_dmax = 2; i_color = false;
            i_subtree_max = 1;
          })
    < Msg.bits ~n:32 (mk 10))

(* ---------------- State predicates ---------------- *)

let fresh_view ?(root = 0) ?(parent = 0) ?(dist = 0) ?(deg = 1) ?(dmax = 2) ?(color = false)
    ?(stm = 2) () =
  {
    State.w_root = root;
    w_parent = parent;
    w_dist = dist;
    w_deg = deg;
    w_dmax = dmax;
    w_color = color;
    w_subtree_max = stm;
    w_fresh = true;
  }

let test_clean_state_is_own_root () =
  let ctx = make_ctx ~id:3 ~neighbor_ids:[ 1; 5 ] () in
  let st = State.clean ctx in
  Alcotest.(check int) "root" 3 st.State.root;
  Alcotest.(check int) "parent self" 3 st.State.parent;
  Alcotest.(check int) "dist" 0 st.State.dist;
  check "coherent as own root" false (State.new_root_candidate ctx st)

let test_better_parent () =
  let ctx = make_ctx ~id:3 ~neighbor_ids:[ 1; 5 ] () in
  let st = State.clean ctx in
  check "no better parent when views unknown" false (State.better_parent ctx st);
  let st = { st with State.views = [| fresh_view ~root:1 ~dist:0 (); State.unknown_view |] } in
  check "smaller root attracts" true (State.better_parent ctx st);
  (* A claim with an out-of-bound distance must be ignored (count-to-infinity guard). *)
  let st = { st with State.views = [| fresh_view ~root:1 ~dist:99 (); State.unknown_view |] } in
  check "overlong distance ignored" false (State.better_parent ctx st)

let test_new_root_candidate_cases () =
  let ctx = make_ctx ~id:3 ~neighbor_ids:[ 1; 5 ] () in
  let st = State.clean ctx in
  (* Parent not a neighbour. *)
  check "foreign parent" true (State.new_root_candidate ctx { st with State.parent = 9 });
  (* Root larger than own id is never coherent. *)
  check "root above own id" true
    (State.new_root_candidate ctx { st with State.root = 7; parent = 5 });
  (* Distance incoherent with the parent's view. *)
  let views = [| fresh_view ~root:0 ~dist:4 (); State.unknown_view |] in
  let st' = { st with State.root = 0; parent = 1; dist = 2; views } in
  check "distance mismatch" true (State.new_root_candidate ctx st');
  let st'' = { st' with State.dist = 5 } in
  check "coherent when dist = parent+1" false (State.new_root_candidate ctx st'')

let test_is_tree_edge_both_directions () =
  let ctx = make_ctx ~id:3 ~neighbor_ids:[ 1; 5 ] () in
  let st = State.clean ctx in
  (* Our parent pointer makes the edge a tree edge... *)
  let st1 = { st with State.parent = 5 } in
  check "own parent edge" true (State.is_tree_edge ctx st1 1);
  (* ...and so does the neighbour's parent pointing at us. *)
  let views = [| fresh_view ~parent:3 (); State.unknown_view |] in
  let st2 = { st with State.views = views } in
  check "child edge" true (State.is_tree_edge ctx st2 0);
  check "plain neighbour is not" false (State.is_tree_edge ctx st 1)

let test_tree_degree_and_children () =
  let ctx = make_ctx ~id:3 ~neighbor_ids:[ 1; 5; 7 ] () in
  let st = State.clean ctx in
  let views = [| fresh_view ~parent:3 (); fresh_view ~parent:3 (); fresh_view ~parent:9 () |] in
  let st = { st with State.views; parent = 7 } in
  Alcotest.(check int) "two children + parent" 3 (State.tree_degree ctx st);
  Alcotest.(check (list int)) "children slots" [ 0; 1 ] (State.tree_children_slots ctx st)

let test_locally_stabilized_requires_agreement () =
  let ctx = make_ctx ~id:0 ~neighbor_ids:[ 1 ] () in
  let st = State.clean ctx in
  let agree = [| fresh_view ~root:0 ~parent:0 ~dmax:0 ~stm:0 () |] in
  let st_ok = { st with State.views = agree } in
  check "stabilized when all agree" true (State.locally_stabilized ctx st_ok);
  let disagree = [| fresh_view ~root:0 ~parent:0 ~dmax:5 () |] in
  check "dmax disagreement blocks" false
    (State.locally_stabilized ctx { st with State.views = disagree });
  let color_off = [| fresh_view ~root:0 ~parent:0 ~dmax:0 ~stm:0 ~color:true () |] in
  check "color disagreement blocks" false
    (State.locally_stabilized ctx { st with State.views = color_off })

let test_random_state_varies () =
  let ctx = make_ctx ~id:2 ~neighbor_ids:[ 0; 1; 3 ] () in
  let rng = Prng.create 9 in
  let a = State.random ctx rng and b = State.random ctx rng in
  check "two random states differ" true (a <> b)

let test_state_bits_scale () =
  let small = make_ctx ~id:0 ~neighbor_ids:[ 1 ] () in
  let big = make_ctx ~id:0 ~neighbor_ids:[ 1; 2; 3; 4; 5 ] () in
  check "state grows with degree" true
    (State.bits ~n:16 (State.clean big) > State.bits ~n:16 (State.clean small))

(* ---------------- Checker ---------------- *)

(* Build the state array a converged run would have, directly from a tree. *)
let states_of_tree graph tree =
  let k = Tree.max_degree tree in
  Array.init (Graph.n graph) (fun v ->
      let ctx =
        make_ctx ~n:(Graph.n graph) ~id:(Graph.id graph v)
          ~neighbor_ids:(Array.to_list (Array.map (Graph.id graph) (Graph.neighbors graph v)))
          ()
      in
      let st = State.clean ctx in
      {
        st with
        State.root = Graph.id graph (Tree.root tree);
        parent =
          (if Tree.parent tree v = v then Graph.id graph v else Graph.id graph (Tree.parent tree v));
        dist = Tree.depth tree v;
        dmax = k;
      })

let test_checker_accepts_good_config () =
  let g = Gen.ring 6 in
  let tree = Mdst_graph.Algo.bfs_tree g ~root:0 in
  let states = states_of_tree g tree in
  let v = Checker.inspect g states in
  check "spanning" true v.spanning;
  check "rooted" true v.rooted_at_min_id;
  check "dmax ok" true v.dmax_consistent;
  check "dist ok" true v.distances_consistent;
  check "legitimate" true (Checker.legitimate g states);
  Alcotest.(check (option int)) "degree now" (Some (Tree.max_degree tree))
    (Checker.tree_degree_now g states)

let test_checker_rejects_bad_configs () =
  let g = Gen.ring 6 in
  let tree = Mdst_graph.Algo.bfs_tree g ~root:0 in
  let states = states_of_tree g tree in
  (* Break the parent pointer of one node: not a spanning tree any more. *)
  let broken = Array.copy states in
  broken.(3) <- { broken.(3) with State.parent = 3 };
  check "two roots rejected" false (Checker.legitimate g broken);
  (* Wrong dmax. *)
  let wrong = Array.copy states in
  wrong.(2) <- { wrong.(2) with State.dmax = 7 };
  check "bad dmax rejected" false (Checker.legitimate g wrong)

let test_checker_fingerprint () =
  let g = Gen.ring 6 in
  let tree = Mdst_graph.Algo.bfs_tree g ~root:0 in
  let states = states_of_tree g tree in
  let fp = Checker.fingerprint states in
  Alcotest.(check int) "fingerprint stable" fp (Checker.fingerprint states);
  let changed = Array.copy states in
  changed.(1) <- { changed.(1) with State.dist = 17 };
  check "fingerprint tracks protocol vars" true (fp <> Checker.fingerprint changed);
  (* The search cursor must NOT affect the fingerprint (it moves forever). *)
  let cursor = Array.copy states in
  cursor.(1) <- { cursor.(1) with State.search_cursor = 3 };
  Alcotest.(check int) "cursor invisible" fp (Checker.fingerprint cursor)

(* ---------------- Protocol end-to-end on purpose-built graphs -------- *)

let converge ?(seed = 5) ?(init = `Clean) ?(max_rounds = 40_000) graph =
  Run.converge ~seed ~init ~max_rounds ~fixpoint graph

let test_path_tree_trivial () =
  (* On a path the only spanning tree is the path itself. *)
  let g = Gen.path 7 in
  let r = converge g in
  check "converged" true r.converged;
  Alcotest.(check (option int)) "degree 2" (Some 2) r.degree;
  match r.tree with
  | Some t -> check "tree is the path" true (List.length (Tree.edge_list t) = 6)
  | None -> Alcotest.fail "no tree"

let test_spanning_tree_module () =
  (* Check the spanning-tree layer invariants after convergence. *)
  let g = Gen.with_random_ids (Prng.create 3) (Gen.grid ~rows:3 ~cols:4) in
  let engine = Run.make_engine ~seed:4 ~init:`Random g in
  let stop = Run.make_stop ~fixpoint () in
  ignore (Run.Sim.run engine ~max_rounds:40_000 ~check_every:2 ~stop ());
  let states = Run.Sim.states engine in
  let verdict = Checker.inspect g states in
  check "spanning" true verdict.spanning;
  check "rooted at min id" true verdict.rooted_at_min_id;
  check "distances = depths" true verdict.distances_consistent;
  let min_id = Graph.id g (Graph.min_id_node g) in
  Array.iter (fun (st : State.t) -> Alcotest.(check int) "all share min root" min_id st.State.root) states

let test_max_degree_module () =
  let g = Gen.star 7 in
  (* A star is a tree: the protocol cannot change it; dmax must become 6. *)
  let r = converge g in
  check "converged" true r.converged;
  Alcotest.(check (option int)) "degree n-1" (Some 6) r.degree

let test_fig5_improvement () =
  (* The E9 instance: exactly one improvement must run the full swap. *)
  let g =
    Graph.of_edges ~n:8 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (3, 6); (3, 7); (0, 5) ]
  in
  let t0 = Tree.of_parents g ~root:0 [| 0; 0; 1; 2; 3; 4; 3; 3 |] in
  let r = converge ~init:(`Tree t0) g in
  check "converged" true r.converged;
  Alcotest.(check (option int)) "degree 3 = Delta*" (Some 3) r.degree;
  match r.tree with
  | Some t ->
      check "improving edge adopted" true (Tree.is_tree_edge t 0 5);
      check "node 3 relieved" true (Tree.degree t 3 = 3)
  | None -> Alcotest.fail "no tree"

let test_deblock_gadget () =
  (* The crafted instance where Deblock is necessary: the only improving
     edge {5,1} is blocked by node 5 (degree dmax-1); the escape is the
     subtree edge {6,7}.  Full protocol must reach degree 3 = Delta*; the
     ablated variant must stay pinned at 4. *)
  let g = Gen.deblock_gadget () in
  let _, parents = Gen.deblock_gadget_tree g in
  let t0 = Tree.of_parents g ~root:0 parents in
  Alcotest.(check int) "start blocked at 4" 4 (Tree.max_degree t0);
  let r = converge ~init:(`Tree t0) g in
  check "full converged" true r.converged;
  Alcotest.(check (option int)) "full reaches Delta* = 3" (Some 3) r.degree;
  let module NoDeblock = Run.Runner (Mdst_core.Proto.No_deblock) in
  let ablated = NoDeblock.converge ~seed:5 ~init:(`Tree t0) ~quiet_rounds:150 g in
  Alcotest.(check (option int)) "ablated pinned at 4" (Some 4) ablated.degree

let test_deblock_needed () =
  (* K_{3,7}: improving K33-side nodes requires deblock chains in practice. *)
  let g = Gen.complete_bipartite 3 7 in
  let r = converge ~init:`Random g in
  check "converged" true r.converged;
  match (r.degree, Mdst_baseline.Exact.solve g) with
  | Some d, Some e -> check "within Delta*+1" true (d <= e.optimum + 1)
  | _ -> Alcotest.fail "missing result"

let test_ring_with_chord () =
  (* Ring + one chord: tree degree must stay 2 (ring minus an edge). *)
  let g = Graph.of_edges ~n:8 [ (0,1);(1,2);(2,3);(3,4);(4,5);(5,6);(6,7);(7,0);(0,4) ] in
  let r = converge g in
  Alcotest.(check (option int)) "degree 2" (Some 2) r.degree

let test_random_init_many_seeds () =
  List.iter
    (fun seed ->
      let g = Gen.erdos_renyi_connected (Prng.create (seed * 13)) ~n:10 ~p:0.35 in
      let r = converge ~seed ~init:`Random g in
      check (Printf.sprintf "seed %d converged" seed) true r.converged;
      match (r.degree, Mdst_baseline.Exact.solve g) with
      | Some d, Some e ->
          check (Printf.sprintf "seed %d within bound" seed) true (d <= e.optimum + 1)
      | _ -> Alcotest.fail "missing result")
    [ 1; 2; 3; 4; 5; 6 ]

let test_id_permutation_independence () =
  (* The protocol must work when identifiers are an arbitrary permutation of
     the transport indices (min-id root lands on a random node). *)
  let base = Gen.grid ~rows:3 ~cols:3 in
  List.iter
    (fun seed ->
      let g = Gen.with_random_ids (Prng.create seed) base in
      let r = converge ~seed g in
      check "converged with shuffled ids" true r.converged;
      (* The guarantee is Delta*+1 = 3; which of {2, 3} is reached depends
         on the improvement order, hence on the identifiers. *)
      match r.degree with
      | Some d -> check "within Delta*+1" true (d <= 3)
      | None -> Alcotest.fail "no tree")
    [ 1; 2; 3 ]

let test_corrupt_recover () =
  let g = Gen.erdos_renyi_connected (Prng.create 8) ~n:12 ~p:0.3 in
  let rec_ = Run.converge_corrupt_recover ~seed:4 ~fixpoint ~fraction:1.0 g in
  check "first convergence" true rec_.first.converged;
  check "recovered" true (rec_.recovery_rounds <> None);
  Alcotest.(check int) "all corrupted" 12 rec_.corrupted

let test_no_deblock_variant_runs () =
  let module R = Run.Runner (Mdst_core.Proto.No_deblock) in
  let g = Gen.erdos_renyi_connected (Prng.create 2) ~n:10 ~p:0.3 in
  let r = R.converge ~seed:1 ~quiet_rounds:150 g in
  check "ablated variant still reaches a legitimate tree" true (r.degree <> None)

let test_paper_faithful_variant () =
  (* The literal paper cadence (search on every gossip, no pruning) must
     reach the same quality; its Search traffic is strictly heavier. *)
  let module R = Run.Runner (Mdst_core.Proto.Paper_faithful) in
  let g = Gen.erdos_renyi_connected (Prng.create 12) ~n:10 ~p:0.35 in
  let faithful = R.converge ~seed:6 ~init:`Clean ~fixpoint g in
  let default = converge ~seed:6 ~init:`Clean g in
  check "faithful converges" true faithful.converged;
  (match (faithful.degree, default.degree, Mdst_baseline.Exact.solve g) with
  | Some a, Some b, Some e ->
      check "faithful within band" true (a <= e.optimum + 1);
      check "default within band" true (b <= e.optimum + 1)
  | _ -> Alcotest.fail "missing results");
  let searches r = try List.assoc "search" r with Not_found -> 0 in
  check "faithful searches more" true
    (searches faithful.messages > searches default.messages)

let test_no_prune_variant_runs () =
  let module R = Run.Runner (Mdst_core.Proto.No_prune) in
  let g = Gen.ring 8 in
  let r = R.converge ~seed:1 ~fixpoint g in
  check "no-prune converges" true r.converged;
  Alcotest.(check (option int)) "optimal" (Some 2) r.degree

let test_tree_only_variant () =
  (* The layer-isolation ablation: stabilizes a spanning tree but performs
     no reduction whatsoever. *)
  let module R = Run.Runner (Mdst_core.Proto.Tree_only) in
  let g = Gen.wheel 10 in
  (* Clean start: a `Random one would inject adversarial reduction messages
     at t=0, which the metering would (correctly) count as traffic. *)
  let r = R.converge ~seed:3 ~init:`Clean ~quiet_rounds:80 g in
  check "tree-only converges" true r.converged;
  (* The BFS layer roots at the hub's neighbour set: the min-id node 0 is
     the hub, so the tree is the star — degree 9, untouched. *)
  Alcotest.(check (option int)) "no reduction happens" (Some 9) r.degree;
  check "no reduction traffic" true
    (List.for_all
       (fun (l, _) -> l = "info")
       (List.filter (fun (_, c) -> c > 0) r.messages))

let test_invariants_watch () =
  let g = Gen.erdos_renyi_connected (Prng.create 31) ~n:14 ~p:0.3 in
  let engine = Run.make_engine ~seed:5 ~init:`Random g in
  let stop = Run.make_stop ~fixpoint () in
  let report =
    Mdst_core.Invariants.watch ~engine ~max_rounds:30_000 ~stop ()
  in
  check "sampled" true (report.samples > 10);
  check "ends spanning" true report.final_spanning;
  check "availability sane" true (report.availability > 0.0 && report.availability <= 1.0);
  check "several trees traversed" true (report.distinct_trees >= 1);
  check "worst degree bounded by graph" true (report.max_degree_seen <= Graph.max_degree g)

let test_invariants_clean_run_high_availability () =
  (* From a clean tree start the overlay should be spanning almost always. *)
  let g = Gen.grid ~rows:3 ~cols:4 in
  let tree = Mdst_graph.Algo.bfs_tree g ~root:0 in
  let engine = Run.make_engine ~seed:5 ~init:(`Tree tree) g in
  let stop = Run.make_stop ~fixpoint () in
  let report = Mdst_core.Invariants.watch ~engine ~max_rounds:30_000 ~stop () in
  check "high availability from tree start" true (report.availability > 0.8)

(* ---------------- Transplant (topology changes, E13) ---------------- *)

let test_transplant_preserves_views_by_id () =
  let old_graph = Gen.ring 6 in
  let engine = Run.make_engine ~seed:3 old_graph in
  let stop = Run.make_stop ~fixpoint () in
  ignore (Run.Sim.run engine ~max_rounds:20_000 ~check_every:2 ~stop ());
  let states = Run.Sim.states engine in
  (* Add a chord: old neighbours keep their mirror, the new one is unknown. *)
  match Mdst_core.Transplant.add_random_edge (Prng.create 4) old_graph with
  | None -> Alcotest.fail "ring is not complete"
  | Some (new_graph, (u, v)) ->
      let moved = Mdst_core.Transplant.states ~old_graph ~new_graph states in
      let slot_of g x y =
        let nbrs = Graph.neighbors g x in
        let rec go k = if nbrs.(k) = y then k else go (k + 1) in
        go 0
      in
      check "new neighbour mirror is unknown" false
        moved.(u).State.views.(slot_of new_graph u v).State.w_fresh;
      (* An old neighbour's mirror must be carried over untouched. *)
      let w = (u + 1) mod 6 in
      let w' = if w = v then (u + 5) mod 6 else w in
      check "old mirror preserved" true
        (moved.(u).State.views.(slot_of new_graph u w')
        = states.(u).State.views.(slot_of old_graph u w'))

let test_transplant_rejects_mismatched () =
  let a = Gen.ring 6 and b = Gen.ring 8 in
  let states = Array.make 6 (State.clean (make_ctx ~id:0 ~neighbor_ids:[ 1 ] ())) in
  check "node count mismatch rejected" true
    (try
       ignore (Mdst_core.Transplant.states ~old_graph:a ~new_graph:b states);
       false
     with Invalid_argument _ -> true)

let test_remove_tree_edge_keeps_connectivity () =
  let g = Gen.erdos_renyi_connected (Prng.create 7) ~n:14 ~p:0.3 in
  let tree = Mdst_graph.Algo.bfs_tree g ~root:0 in
  match Mdst_core.Transplant.remove_tree_edge (Prng.create 1) g tree with
  | None -> Alcotest.fail "dense graph must have a removable tree edge"
  | Some (g', (u, v)) ->
      check "edge gone" false (Graph.mem_edge g' u v);
      Alcotest.(check int) "one less edge" (Graph.m g - 1) (Graph.m g');
      check "still connected" true (Mdst_graph.Algo.is_connected g')

let test_remove_tree_edge_none_on_tree () =
  (* On a tree every edge is a bridge: nothing is removable. *)
  let g = Gen.caterpillar ~spine:3 ~legs:2 in
  let tree = Mdst_graph.Algo.bfs_tree g ~root:0 in
  check "no removable edge" true
    (Mdst_core.Transplant.remove_tree_edge (Prng.create 1) g tree = None)

let test_recover_after_tree_edge_loss () =
  (* End-to-end E13 scenario: converge, drop a tree edge, re-stabilize. *)
  let graph = Gen.erdos_renyi_connected (Prng.create 11) ~n:12 ~p:0.35 in
  let engine = Run.make_engine ~seed:6 graph in
  let stop = Run.make_stop ~fixpoint () in
  let o1 = Run.Sim.run engine ~max_rounds:30_000 ~check_every:2 ~stop () in
  check "initial convergence" true o1.converged;
  let tree = Option.get (Checker.tree_of_states graph (Run.Sim.states engine)) in
  match Mdst_core.Transplant.remove_tree_edge (Prng.create 2) graph tree with
  | None -> Alcotest.fail "no removable tree edge"
  | Some (graph', _) ->
      let moved =
        Mdst_core.Transplant.states ~old_graph:graph ~new_graph:graph'
          (Run.Sim.states engine)
      in
      let engine' =
        Run.Sim.create ~seed:7
          ~init:(`Custom (fun ctx _ -> moved.(ctx.Mdst_sim.Node.node)))
          graph'
      in
      let stop' = Run.make_stop ~fixpoint () in
      let o2 = Run.Sim.run engine' ~max_rounds:30_000 ~check_every:2 ~stop:stop' () in
      check "re-stabilized" true o2.converged

let test_graceful_reattach_mechanism () =
  (* Craft the exact situation the E17 rule targets: a converged overlay
     loses the tree edge to an orphan that has a same-depth neighbour in
     the main component.  Graph: root 0 with two depth-1 children 1 and 2,
     1 -- 2 adjacent, subtree below 2.  Remove (0,2): node 2 must re-attach
     through 1 without resetting its subtree's roots. *)
  let g =
    Graph.of_edges ~n:6 [ (0, 1); (0, 2); (1, 2); (2, 3); (2, 4); (4, 5); (1, 5) ]
  in
  let t0 = Tree.of_parents g ~root:0 [| 0; 0; 0; 2; 2; 4 |] in
  let module GR = Run.Runner (Mdst_core.Proto.Graceful) in
  let engine = GR.make_engine ~seed:4 ~init:(`Tree t0) g in
  let stop = GR.make_stop ~fixpoint () in
  ignore (GR.Sim.run engine ~max_rounds:20_000 ~check_every:2 ~stop ());
  (* Break the edge and transplant onto the graph without it. *)
  let g' = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (2, 4); (4, 5); (1, 5) ] in
  let moved =
    Mdst_core.Transplant.states ~old_graph:g ~new_graph:g' (GR.Sim.states engine)
  in
  let engine' =
    GR.Sim.create ~seed:5 ~init:(`Custom (fun ctx _ -> moved.(ctx.Mdst_sim.Node.node))) g'
  in
  let module W = Mdst_core.Invariants.Watch (Mdst_core.Proto.Graceful) in
  let stop = GR.make_stop ~fixpoint () in
  let report = W.watch ~engine:engine' ~max_rounds:20_000 ~stop () in
  check "repaired" true report.final_spanning;
  (* The graceful arm must never have reset node 2's subtree roots: the
     configurations stay spanning throughout (a reset would show an outage
     while 2..5 rebuild). *)
  check "no outage during graceful repair" true (report.longest_outage <= 1)

let test_colors_agree_at_fixpoint () =
  (* After convergence the colour wave must have settled: every node agrees
     with the whole neighbourhood (the per-swap flips have been absorbed). *)
  let g = Gen.erdos_renyi_connected (Prng.create 6) ~n:12 ~p:0.3 in
  let engine = Run.make_engine ~seed:9 ~init:`Random g in
  let stop = Run.make_stop ~fixpoint () in
  ignore (Run.Sim.run engine ~max_rounds:40_000 ~check_every:2 ~stop ());
  let states = Run.Sim.states engine in
  let colors = Array.map (fun (st : State.t) -> st.State.color) states in
  check "single colour across the tree" true
    (Array.for_all (fun c -> c = colors.(0)) colors)

(* ---------------- Info suppression dirty-bit edges ---------------- *)

module PS = Mdst_core.Proto.Suppressed

(* A single leaf node whose local rules quiesce immediately: every tick's
   gossip repeats itself, so the send pattern isolates the suppression
   logic.  [sent] records whether the last tick broadcast an Info. *)
let suppression_rig () =
  let sent = ref false in
  let ctx =
    {
      (make_ctx ~id:3 ~neighbor_ids:[ 1 ] ()) with
      Node.send =
        (fun _ m -> match m with Msg.Info _ -> sent := true | _ -> ());
    }
  in
  (ctx, sent)

let test_suppression_refresh_boundary () =
  let ctx, sent = suppression_rig () in
  let st = ref (PS.init ctx) in
  let send_ticks = ref [] in
  for i = 1 to 33 do
    sent := false;
    st := PS.on_tick ctx !st;
    if !sent then send_ticks := i :: !send_ticks
  done;
  (match List.rev !send_ticks with
  | first :: rest ->
      (* After the cold-cache send, refreshes land exactly every 8th tick
         (info_refresh_every), never earlier, never later. *)
      Alcotest.(check (list int)) "forced refresh every 8th tick"
        [ first + 8; first + 16; first + 24 ]
        (List.filteri (fun i _ -> i < 3) rest)
  | [] -> Alcotest.fail "node never advertised");
  check "age counts suppressed ticks since the last broadcast" true
    ((!st).State.info_age < 8)

let test_suppression_change_then_revert () =
  let ctx, sent = suppression_rig () in
  let st = ref (PS.init ctx) in
  (* Warm the cache and move into mid-window suppression. *)
  for _ = 1 to 3 do
    st := PS.on_tick ctx !st
  done;
  let base = !st in
  check "mid-window precondition" true
    (base.State.info_age > 0 && base.State.info_age < 6);
  (* The dirty bit compares tick-time values, not intermediate writes: a
     variable changed and reverted between two ticks is indistinguishable
     from one that never moved, so the tick stays suppressed. *)
  let transient = { base with State.color = not base.State.color } in
  let reverted = { transient with State.color = base.State.color } in
  sent := false;
  st := PS.on_tick ctx reverted;
  check "revert-before-tick is suppressed" false !sent;
  Alcotest.(check int) "suppressed tick still ages the cache"
    (base.State.info_age + 1) (!st).State.info_age;
  (* A difference still live at tick time (here: a cache that no longer
     matches the variables) re-advertises immediately and resets the age. *)
  let stale =
    match (!st).State.last_info with
    | Some i ->
        { !st with State.last_info = Some { i with Msg.i_color = not i.Msg.i_color } }
    | None -> Alcotest.fail "cache must be warm after a broadcast"
  in
  sent := false;
  st := PS.on_tick ctx stale;
  check "live difference re-advertises" true !sent;
  Alcotest.(check int) "broadcast resets the age" 0 (!st).State.info_age

let test_suppression_corrupted_age_is_bounded () =
  let ctx, sent = suppression_rig () in
  let st = ref (PS.init ctx) in
  for _ = 1 to 2 do
    st := PS.on_tick ctx !st
  done;
  (* Adversarial cache: the values match the variables exactly (maximally
     deceptive) but the age counter is corrupted sky-high.  The very next
     tick crosses the refresh boundary, so staleness stays bounded by
     info_refresh_every no matter what the adversary plants. *)
  sent := false;
  st := PS.on_tick ctx { !st with State.info_age = 1000 };
  check "corrupted age forces a refresh at the next tick" true !sent;
  Alcotest.(check int) "age restarts from the refresh" 0 (!st).State.info_age;
  (* And the boundary case itself: age = info_refresh_every - 1 means the
     window is exhausted on this tick. *)
  for _ = 1 to 2 do
    st := PS.on_tick ctx !st
  done;
  sent := false;
  st := PS.on_tick ctx { !st with State.info_age = 7 };
  check "age 7 tick is the forced refresh" true !sent;
  (* The window after a forced refresh is a full quiet one again. *)
  let quiet = ref 0 in
  for _ = 1 to 7 do
    sent := false;
    st := PS.on_tick ctx !st;
    if not !sent then incr quiet
  done;
  Alcotest.(check int) "seven suppressed ticks follow" 7 !quiet

let test_pp_smoke () =
  let ctx = make_ctx ~id:3 ~neighbor_ids:[ 1; 5 ] () in
  let st = State.clean ctx in
  let rendered = Format.asprintf "%a" (State.pp ctx) st in
  check "state pp mentions id" true (String.length rendered > 10);
  let msg =
    Msg.Search
      {
        s_edge = (1, 2);
        s_idblock = Some 3;
        s_stack = [ { Msg.e_id = 1; e_deg = 2; e_dist = 0 } ];
        s_visited = Intset.singleton 1;
      }
  in
  check "msg pp renders" true (String.length (Format.asprintf "%a" Msg.pp msg) > 10)

let test_tree_init_is_instantly_coherent () =
  (* `Tree initialization plants a legitimate tree: distances must match
     depths from the very first inspection (only dmax bookkeeping boots
     cold). *)
  let g = Gen.grid ~rows:3 ~cols:3 in
  let t0 = Mdst_graph.Algo.bfs_tree g ~root:0 in
  let engine = Run.make_engine ~seed:2 ~init:(`Tree t0) g in
  let v = Checker.inspect g (Run.Sim.states engine) in
  check "spanning at birth" true v.spanning;
  check "distances at birth" true v.distances_consistent;
  check "dmax cold at birth" false v.dmax_consistent

let test_metering_collected () =
  let g = Gen.erdos_renyi_connected (Prng.create 5) ~n:10 ~p:0.3 in
  let r = converge ~init:`Random g in
  check "state bits metered" true (r.max_state_bits > 0);
  check "msg bits metered" true (r.max_msg_bits > 0);
  check "info messages flowed" true (List.mem_assoc "info" r.messages)

(* ---------------- Parallel engine ---------------- *)

let test_pengine_k_invariance () =
  (* The sharded engine's schedule is independent of the shard count by
     construction; the observable outcome must be bit-identical across k. *)
  let g = Gen.grid ~rows:4 ~cols:4 in
  let run d =
    let e = Run.make_engine ~seed:5 ~init:`Random ~domains:d g in
    let o = Run.Sim.run e ~max_rounds:20_000 ~stop:(Run.make_stop ()) () in
    Run.snapshot e ~converged:o.Run.Sim.converged
  in
  let r1 = run 1 and r2 = run 2 and r3 = run 3 in
  check "k=1 converges" true r1.Run.converged;
  List.iter
    (fun (label, r) ->
      check (label ^ " converges") true r.Run.converged;
      Alcotest.(check int) (label ^ " same rounds") r1.Run.rounds r.Run.rounds;
      Alcotest.(check int) (label ^ " same messages") r1.Run.total_messages r.Run.total_messages;
      Alcotest.(check (option int)) (label ^ " same degree") r1.Run.degree r.Run.degree)
    [ ("k=2", r2); ("k=3", r3) ]

(* Trace identity: on ER n=24 the observer timeline (every tick, delivery
   and fault action, with its round and time) and the final states are the
   same at 1, 2 and 4 shards — from a clean start, and from a random one
   under a channel-fault plan on four of the graph's channels. *)
let test_pengine_timeline_identity () =
  let module Fault = Mdst_sim.Fault in
  let g = Gen.erdos_renyi_connected (Prng.create 24) ~n:24 ~p:(4.0 /. 23.0) in
  let edges = Graph.edges g in
  (* Narrow windows: a fault fires or not on the exact causal round of
     the sending event, which must not depend on the shard count. *)
  let window i = { Fault.from_round = 10 * (i + 1); upto_round = (10 * (i + 1)) + 1 } in
  let chan i = edges.(i * Array.length edges / 4) in
  let plan =
    {
      Fault.plan_seed = 5;
      events =
        [
          (let src, dst = chan 0 in
           Fault.Drop { window = window 0; src; dst; prob = 0.9 });
          (let src, dst = chan 1 in
           Fault.Duplicate { window = window 1; src; dst; prob = 0.9; copies = 1 });
          (let dst, src = chan 2 in
           Fault.Reorder { window = window 2; src; dst; prob = 0.9; delay = 2.0 });
          (let src, dst = chan 3 in
           Fault.Corrupt { window = window 3; src; dst; prob = 0.9 });
        ];
    }
  in
  let timeline ~init ~plan domains =
    let e = Run.make_engine ~seed:3 ~init ~domains g in
    Run.Sim.install_faults e plan;
    let obs = ref [] in
    Run.Sim.observe e (fun o -> obs := o :: !obs);
    ignore (Run.Sim.run e ~max_rounds:120 ~stop:(fun _ -> false) ());
    (List.rev !obs, Array.copy (Run.Sim.states e), Run.Sim.fault_stats e)
  in
  List.iter
    (fun (label, init, plan) ->
      let obs1, states1, stats1 = timeline ~init ~plan 1 in
      check (label ^ ": faults fired") true (Fault.is_empty plan || Fault.total stats1 > 0);
      List.iter
        (fun k ->
          let obs, states, stats = timeline ~init ~plan k in
          Alcotest.(check int) (Printf.sprintf "%s k=%d: observations" label k)
            (List.length obs1) (List.length obs);
          check (Printf.sprintf "%s k=%d: same timeline" label k) true (obs = obs1);
          check (Printf.sprintf "%s k=%d: same final states" label k) true (states = states1);
          check (Printf.sprintf "%s k=%d: same fault actions" label k) true (stats = stats1))
        [ 2; 4 ])
    [ ("clean", `Clean, Fault.empty); ("faults", `Random, plan) ]

let test_pengine_repeat_determinism () =
  let g = Gen.grid ~rows:3 ~cols:3 in
  let run () = Run.converge ~seed:11 ~init:`Random ~max_rounds:20_000 ~domains:2 g in
  let a = run () and b = run () in
  Alcotest.(check int) "same rounds across runs" a.Run.rounds b.Run.rounds;
  Alcotest.(check int) "same messages across runs" a.Run.total_messages b.Run.total_messages

let test_pengine_stabilizes_to_legit_tree () =
  let g = Gen.grid ~rows:4 ~cols:4 in
  let r = Run.converge ~seed:9 ~init:`Random ~max_rounds:30_000 ~fixpoint ~domains:2 g in
  check "converged" true r.converged;
  match r.tree with
  | Some t -> check "FR fixpoint reached" true (fixpoint t)
  | None -> Alcotest.fail "no legitimate tree at quiescence"

(* ---------------- change-driven Search ---------------- *)

module PD = Mdst_core.Proto.Default

let refresh = Mdst_core.Proto.Default_config.search_refresh_every

(* Node 1 of a legitimate configuration (root 0, dmax 3): parent 0, child
   2, and one non-tree edge to 3 that is worth searching
   (dmax >= max(deg 2, deg 1) + 1).  [searches] collects the idblock of
   every Search it sends. *)
let search_rig ?(quiet = 0) () =
  let searches = ref [] in
  let ctx =
    {
      (make_ctx ~id:1 ~neighbor_ids:[ 0; 2; 3 ] ()) with
      Node.send =
        (fun _ m ->
          match m with Msg.Search { s_idblock; _ } -> searches := s_idblock :: !searches | _ -> ());
    }
  in
  let view ~parent ~dist ~deg ~stm =
    {
      State.w_root = 0;
      w_parent = parent;
      w_dist = dist;
      w_deg = deg;
      w_dmax = 3;
      w_color = false;
      w_subtree_max = stm;
      w_fresh = true;
    }
  in
  let st =
    {
      (State.clean ctx) with
      State.root = 0;
      parent = 0;
      dist = 1;
      dmax = 3;
      subtree_max = 3;
      views =
        [|
          view ~parent:0 ~dist:0 ~deg:3 ~stm:3;
          view ~parent:1 ~dist:2 ~deg:1 ~stm:3;
          view ~parent:0 ~dist:1 ~deg:1 ~stm:1;
        |];
      search_quiet = quiet;
    }
  in
  (ctx, st, searches)

(* The Info that would repeat a mirror slot exactly. *)
let info_of_view (v : State.view) =
  {
    Msg.i_root = v.State.w_root;
    i_parent = v.w_parent;
    i_dist = v.w_dist;
    i_deg = v.w_deg;
    i_dmax = v.w_dmax;
    i_color = v.w_color;
    i_subtree_max = v.w_subtree_max;
  }

(* Tick until the node sends a Search; the number of ticks it took. *)
let ticks_to_search ?(limit = 4 * refresh) ctx st searches =
  let rec go st i =
    if i > limit then (st, i)
    else begin
      searches := [];
      let st = PD.on_tick ctx st in
      if !searches <> [] then (st, i) else go st (i + 1)
    end
  in
  go st 1

let test_search_gate_closes_and_refreshes () =
  let ctx, st, searches = search_rig () in
  check "rig is locally stabilized" true (State.locally_stabilized ctx st);
  let st, first = ticks_to_search ctx st searches in
  Alcotest.(check int) "a fresh window searches on the first tick" 1 first;
  (* Nothing changes from here on: the window stays shut until the
     refresh reopens it, at least every [refresh] ticks. *)
  let st, gap1 = ticks_to_search ctx st searches in
  let _, gap2 = ticks_to_search ctx st searches in
  List.iter
    (fun gap ->
      check (Printf.sprintf "gap %d: shut after the rotation" gap) true (gap > 1);
      check (Printf.sprintf "gap %d: refreshed within %d ticks" gap refresh) true (gap <= refresh))
    [ gap1; gap2 ]

let test_search_gate_corrupted_counter () =
  List.iter
    (fun quiet ->
      let ctx, st, searches = search_rig ~quiet () in
      let _, ticks = ticks_to_search ctx st searches in
      check
        (Printf.sprintf "counter %d: next search within %d ticks (took %d)" quiet refresh ticks)
        true (ticks <= refresh))
    [ 3; refresh - 1; refresh; 1000; -7; max_int; min_int ]

(* A state whose window is shut: one search tick, then one more tick. *)
let shut_rig () =
  let ctx, st, searches = search_rig () in
  let st, _ = ticks_to_search ctx st searches in
  searches := [];
  let st = PD.on_tick ctx st in
  check "window shut" true (!searches = [] && st.State.search_quiet >= 3);
  (ctx, st, searches)

let test_search_gate_local_changes () =
  let opens what ctx st searches =
    Alcotest.(check int) (what ^ ": counter reset") 0 st.State.search_quiet;
    let _, ticks = ticks_to_search ctx st searches in
    Alcotest.(check int) (what ^ ": searches on the next tick") 1 ticks
  in
  (* A mirror value: neighbour 3 reports another subtree_max. *)
  let ctx, st, searches = shut_rig () in
  let changed = { (info_of_view st.State.views.(2)) with Msg.i_subtree_max = 2 } in
  let st = PD.on_message ctx st ~src:3 (Msg.Info changed) in
  opens "mirror value" ctx st searches;
  (* An own variable: a dmax that disagrees with the parent is corrected
     on the tick, and the same tick searches. *)
  let ctx, st, searches = shut_rig () in
  searches := [];
  let st = PD.on_tick ctx { st with State.dmax = 2 } in
  check "own variable: the correcting tick searches" true (!searches <> []);
  Alcotest.(check int) "own variable: dmax corrected" 3 st.State.dmax;
  (* A swap lock expiring on the tick clears it: the same tick searches. *)
  let ctx, st, searches = shut_rig () in
  searches := [];
  let lock = { State.p_edge = (1, 3); p_target = (2, 1); p_ttl = 1 } in
  let st = PD.on_tick ctx { st with State.pending = Some lock } in
  check "lock cleared: the same tick searches" true (!searches <> [] && st.State.pending = None);
  (* A Deblock set by a receipt, then its expiry. *)
  let ctx, st, searches = shut_rig () in
  let st = PD.on_message ctx st ~src:0 (Msg.Deblock { d_idblock = 0; d_ttl = 3 }) in
  opens "deblock set" ctx st searches;
  check "deblock-mode search carries the idblock" true
    (List.for_all (fun b -> b = Some 0) !searches);
  let ctx, st, searches = shut_rig () in
  searches := [];
  let _ = PD.on_tick ctx { st with State.deblock = Some (0, 1) } in
  check "deblock cleared: the same tick searches" true (!searches <> [])

let test_search_gate_unchanged_info_is_free () =
  let ctx, st, _ = shut_rig () in
  List.iteri
    (fun slot src ->
      let repeat = Msg.Info (info_of_view st.State.views.(slot)) in
      check
        (Printf.sprintf "repeated Info from %d returns the same state" src)
        true
        (PD.on_message ctx st ~src repeat == st))
    [ 0; 2; 3 ]

(* A node none of whose edges could start a Search (here: the edge to 3
   turned into a tree edge) ticks without touching its state, counter
   included; a corrupted counter is normalised by one tick first. *)
let test_search_gate_nothing_to_search_is_free () =
  let ctx, st, searches = search_rig ~quiet:1000 () in
  let views = Array.copy st.State.views in
  views.(2) <- { views.(2) with State.w_parent = 1; w_dist = 2 };
  let st = PD.on_tick ctx { st with State.views } in
  Alcotest.(check int) "corrupted counter wrapped" 0 st.State.search_quiet;
  let rec go st i =
    if i <= 2 * refresh then begin
      let st' = PD.on_tick ctx st in
      check (Printf.sprintf "tick %d returns the same state" i) true (st' == st);
      go st' (i + 1)
    end
  in
  go st 1;
  check "no search sent" true (!searches = [])

(* A Deblock already held is neither re-flooded nor refreshed: it runs out
   after deblock_ttl ticks and the next request floods the subtree again,
   so the copies below a node that keeps being asked do not lapse for
   good. *)
let test_held_deblock_expires_and_refloods () =
  let floods = ref 0 in
  let ctx0, st, _ = search_rig () in
  let ctx =
    { ctx0 with Node.send = (fun _ m -> match m with Msg.Deblock _ -> incr floods | _ -> ()) }
  in
  let deblock st = PD.on_message ctx st ~src:0 (Msg.Deblock { d_idblock = 0; d_ttl = 3 }) in
  let st = deblock st in
  Alcotest.(check int) "news floods the child" 1 !floods;
  let st = PD.on_tick ctx st in
  let held = st.State.deblock in
  let st = deblock st in
  Alcotest.(check int) "held: no re-flood" 1 !floods;
  check "held: not refreshed" true (st.State.deblock == held);
  let ttl = Mdst_core.Proto.Default_config.deblock_ttl in
  let st = ref st in
  for _ = 2 to ttl do
    st := PD.on_tick ctx !st
  done;
  check "expired after deblock_ttl ticks" true ((!st).State.deblock = None);
  let _ = deblock !st in
  Alcotest.(check int) "the next request floods again" 2 !floods

let () =
  Alcotest.run "core"
    [
      ( "msg",
        [
          Alcotest.test_case "labels" `Quick test_msg_labels;
          Alcotest.test_case "bits grow with path" `Quick test_msg_bits_grow_with_path;
        ] );
      ( "state",
        [
          Alcotest.test_case "clean is own root" `Quick test_clean_state_is_own_root;
          Alcotest.test_case "better_parent" `Quick test_better_parent;
          Alcotest.test_case "new_root_candidate" `Quick test_new_root_candidate_cases;
          Alcotest.test_case "is_tree_edge both directions" `Quick test_is_tree_edge_both_directions;
          Alcotest.test_case "degree and children" `Quick test_tree_degree_and_children;
          Alcotest.test_case "locally_stabilized" `Quick test_locally_stabilized_requires_agreement;
          Alcotest.test_case "random varies" `Quick test_random_state_varies;
          Alcotest.test_case "bits scale with degree" `Quick test_state_bits_scale;
        ] );
      ( "checker",
        [
          Alcotest.test_case "accepts good config" `Quick test_checker_accepts_good_config;
          Alcotest.test_case "rejects bad configs" `Quick test_checker_rejects_bad_configs;
          Alcotest.test_case "fingerprint" `Quick test_checker_fingerprint;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "path tree trivial" `Quick test_path_tree_trivial;
          Alcotest.test_case "spanning-tree module invariants" `Quick test_spanning_tree_module;
          Alcotest.test_case "max-degree module on star" `Quick test_max_degree_module;
          Alcotest.test_case "figure-5 improvement" `Quick test_fig5_improvement;
          Alcotest.test_case "deblock gadget (necessity)" `Quick test_deblock_gadget;
          Alcotest.test_case "deblock on K3,7" `Quick test_deblock_needed;
          Alcotest.test_case "ring with chord" `Quick test_ring_with_chord;
          Alcotest.test_case "random init, many seeds" `Slow test_random_init_many_seeds;
          Alcotest.test_case "id permutation independence" `Quick test_id_permutation_independence;
          Alcotest.test_case "corrupt and recover" `Quick test_corrupt_recover;
          Alcotest.test_case "no-deblock variant" `Quick test_no_deblock_variant_runs;
          Alcotest.test_case "no-prune variant" `Quick test_no_prune_variant_runs;
          Alcotest.test_case "paper-faithful cadence" `Quick test_paper_faithful_variant;
          Alcotest.test_case "tree init instantly coherent" `Quick test_tree_init_is_instantly_coherent;
          Alcotest.test_case "metering collected" `Quick test_metering_collected;
          Alcotest.test_case "colors agree at fixpoint" `Quick test_colors_agree_at_fixpoint;
          Alcotest.test_case "graceful reattach mechanism" `Quick test_graceful_reattach_mechanism;
          Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
        ] );
      ( "search-gate",
        [
          Alcotest.test_case "window shuts, refresh reopens" `Quick
            test_search_gate_closes_and_refreshes;
          Alcotest.test_case "corrupted counter searches within R" `Quick
            test_search_gate_corrupted_counter;
          Alcotest.test_case "every kind of local change reopens" `Quick
            test_search_gate_local_changes;
          Alcotest.test_case "unchanged Info allocates nothing" `Quick
            test_search_gate_unchanged_info_is_free;
          Alcotest.test_case "nothing to search allocates nothing" `Quick
            test_search_gate_nothing_to_search_is_free;
          Alcotest.test_case "held Deblock expires, then re-floods" `Quick
            test_held_deblock_expires_and_refloods;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "refresh-tick boundary" `Quick test_suppression_refresh_boundary;
          Alcotest.test_case "change then revert within one tick" `Quick
            test_suppression_change_then_revert;
          Alcotest.test_case "corrupted age stays bounded" `Quick
            test_suppression_corrupted_age_is_bounded;
        ] );
      ( "variants",
        [
          Alcotest.test_case "tree-only layer isolation" `Quick test_tree_only_variant;
          Alcotest.test_case "invariants watcher" `Quick test_invariants_watch;
          Alcotest.test_case "availability from clean tree" `Quick test_invariants_clean_run_high_availability;
        ] );
      ( "transplant",
        [
          Alcotest.test_case "views re-matched by id" `Quick test_transplant_preserves_views_by_id;
          Alcotest.test_case "rejects mismatch" `Quick test_transplant_rejects_mismatched;
          Alcotest.test_case "removal keeps connectivity" `Quick test_remove_tree_edge_keeps_connectivity;
          Alcotest.test_case "trees have no removable edge" `Quick test_remove_tree_edge_none_on_tree;
          Alcotest.test_case "recovers after tree-edge loss" `Quick test_recover_after_tree_edge_loss;
        ] );
      ( "pengine",
        [
          Alcotest.test_case "timeline identical at 1, 2 and 4 shards" `Quick
            test_pengine_timeline_identity;
          Alcotest.test_case "outcome invariant in shard count" `Quick test_pengine_k_invariance;
          Alcotest.test_case "repeat determinism" `Quick test_pengine_repeat_determinism;
          Alcotest.test_case "stabilizes to FR fixpoint" `Quick
            test_pengine_stabilizes_to_legit_tree;
        ] );
    ]
