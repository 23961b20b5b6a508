(* Tests for the baselines: the exact branch-and-bound MDST solver, the
   Fürer–Raghavachari local search, and the naive spanning trees.  The
   exact solver is the ground truth for everything else, so it gets known
   closed-form instances first. *)

module Graph = Mdst_graph.Graph
module Gen = Mdst_graph.Gen
module Tree = Mdst_graph.Tree
module Prng = Mdst_util.Prng
module Exact = Mdst_baseline.Exact
module Fr = Mdst_baseline.Fr
module Naive = Mdst_baseline.Naive

let check = Alcotest.(check bool)

let optimum g =
  match Exact.solve g with Some r -> r.optimum | None -> Alcotest.fail "budget exhausted"

(* ---------------- Exact ---------------- *)

let test_exact_known_values () =
  Alcotest.(check int) "path" 2 (optimum (Gen.path 6));
  Alcotest.(check int) "ring" 2 (optimum (Gen.ring 6));
  Alcotest.(check int) "star (forced)" 5 (optimum (Gen.star 6));
  Alcotest.(check int) "complete (ham path)" 2 (optimum (Graph.complete 7));
  Alcotest.(check int) "petersen (hypohamiltonian)" 2 (optimum (Gen.petersen ()));
  Alcotest.(check int) "wheel" 2 (optimum (Gen.wheel 9));
  Alcotest.(check int) "grid" 2 (optimum (Gen.grid ~rows:3 ~cols:4));
  Alcotest.(check int) "hypercube" 2 (optimum (Gen.hypercube 3));
  (* Caterpillar is a tree: the only spanning tree is itself. *)
  Alcotest.(check int) "caterpillar spine degree" 5
    (optimum (Gen.caterpillar ~spine:3 ~legs:3))

let test_exact_bipartite () =
  (* K_{2,5}: one side has 2 nodes; a spanning tree needs the 5 right nodes
     attached through them, so some left node has degree >= 3; 3+1 split is
     feasible => Delta* = 3.  (General K_{a,b}, b > a: ceil(b/a) + (1 if not divisible... )
     checked empirically here.) *)
  Alcotest.(check int) "K25" 3 (optimum (Gen.complete_bipartite 2 5));
  Alcotest.(check int) "K33" 2 (optimum (Gen.complete_bipartite 3 3));
  Alcotest.(check int) "K14" 4 (optimum (Gen.complete_bipartite 1 4))

let test_exact_witness_tree_valid () =
  let g = Gen.erdos_renyi_connected (Prng.create 4) ~n:12 ~p:0.3 in
  match Exact.solve g with
  | None -> Alcotest.fail "budget exhausted"
  | Some r ->
      Alcotest.(check int) "witness matches optimum" r.optimum (Tree.max_degree r.tree);
      Alcotest.(check int) "witness spans" 11 (List.length (Tree.edge_list r.tree));
      check "expansions counted" true (r.expansions > 0)

let test_exact_budget () =
  let g = Graph.complete 12 in
  Alcotest.(check (option int)) "tiny budget gives None" None
    (Option.map (fun (r : Exact.result) -> r.optimum) (Exact.solve ~budget:3 g))

let test_exact_tiny_graphs () =
  (* Degenerate sizes exercise the solver's base cases. *)
  let single = Graph.of_edges ~n:1 [] in
  (match Exact.solve single with
  | Some r -> Alcotest.(check int) "n=1 optimum" 0 r.optimum
  | None -> Alcotest.fail "n=1 must solve");
  let pair = Graph.of_edges ~n:2 [ (0, 1) ] in
  match Exact.solve pair with
  | Some r -> Alcotest.(check int) "n=2 optimum" 1 r.optimum
  | None -> Alcotest.fail "n=2 must solve"

let test_exact_gadget () =
  match Exact.solve (Gen.deblock_gadget ()) with
  | Some r -> Alcotest.(check int) "gadget optimum" 3 r.optimum
  | None -> Alcotest.fail "gadget must solve"

let test_exact_rejects_disconnected () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  check "disconnected rejected" true
    (try
       ignore (Exact.solve g);
       false
     with Invalid_argument _ -> true)

let test_spanning_tree_with_degree () =
  let g = Gen.wheel 8 in
  (match Exact.spanning_tree_with_degree g 2 with
  | Some t -> Alcotest.(check int) "degree respected" 2 (Tree.max_degree t)
  | None -> Alcotest.fail "wheel has a ham path");
  check "degree-1 impossible on n>=3" true (Exact.spanning_tree_with_degree g 1 = None)

let test_lower_bound () =
  Alcotest.(check int) "star cut" 5 (Exact.lower_bound (Gen.star 6));
  Alcotest.(check int) "caterpillar spine" 5 (Exact.lower_bound (Gen.caterpillar ~spine:3 ~legs:3));
  Alcotest.(check int) "ring trivial" 2 (Exact.lower_bound (Gen.ring 6));
  check "lower bound <= optimum" true (Exact.lower_bound (Gen.wheel 9) <= optimum (Gen.wheel 9))

let prop_exact_leq_any_tree =
  QCheck.Test.make ~name:"exact optimum <= degree of any sampled spanning tree" ~count:40
    QCheck.(pair small_int (int_range 5 12))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Gen.erdos_renyi_connected rng ~n ~p:0.4 in
      let t = Mdst_graph.Algo.random_spanning_tree rng g ~root:0 in
      match Exact.solve g with
      | Some r -> r.optimum <= Tree.max_degree t
      | None -> true)

(* ---------------- FR ---------------- *)

let test_fr_fixpoint_not_improvable () =
  let g = Gen.erdos_renyi_connected (Prng.create 7) ~n:14 ~p:0.3 in
  let t = Fr.approx_mdst g in
  check "fixpoint" false (Fr.improvable t)

let test_fr_improves_star_in_clique () =
  (* BFS tree of a complete graph is a star; FR must drive it to degree 2. *)
  let g = Graph.complete 8 in
  let bfs = Mdst_graph.Algo.bfs_tree g ~root:0 in
  Alcotest.(check int) "bfs is a star" 7 (Tree.max_degree bfs);
  let t, improvements = Fr.run bfs in
  Alcotest.(check int) "ham path found" 2 (Tree.max_degree t);
  check "several improvements" true (improvements >= 5)

let test_fr_run_counts () =
  let g = Gen.ring 6 in
  let t = Mdst_graph.Algo.bfs_tree g ~root:0 in
  let _, improvements = Fr.run t in
  Alcotest.(check int) "ring tree needs no improvement" 0 improvements

let test_fr_reduce_node_once () =
  let g = Graph.complete 6 in
  let star = Mdst_graph.Algo.bfs_tree g ~root:0 in
  (match Fr.reduce_node_once star ~target:0 ~visited:[] with
  | Some t' -> check "degree reduced" true (Tree.degree t' 0 < Tree.degree star 0)
  | None -> Alcotest.fail "star in K6 must be reducible");
  (* A leaf cannot be reduced. *)
  let path_tree = Mdst_graph.Algo.bfs_tree (Gen.path 5) ~root:0 in
  check "leaf irreducible" true (Fr.reduce_node_once path_tree ~target:4 ~visited:[] = None)

let prop_fr_within_one_of_optimum =
  QCheck.Test.make ~name:"FR fixpoint degree <= Delta* + 1" ~count:40
    QCheck.(pair small_int (int_range 5 13))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Gen.erdos_renyi_connected rng ~n ~p:0.35 in
      let fr = Tree.max_degree (Fr.approx_mdst g) in
      match Exact.solve g with Some r -> fr <= r.optimum + 1 | None -> true)

let prop_fr_never_worse_than_start =
  QCheck.Test.make ~name:"FR never increases the tree degree" ~count:40
    QCheck.(pair small_int (int_range 5 14))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Gen.erdos_renyi_connected rng ~n ~p:0.35 in
      let t0 = Mdst_graph.Algo.random_spanning_tree rng g ~root:0 in
      let t, _ = Fr.run t0 in
      Tree.max_degree t <= Tree.max_degree t0)

(* ---------------- Naive ---------------- *)

let test_naive_all_span () =
  let g = Gen.erdos_renyi_connected (Prng.create 2) ~n:15 ~p:0.3 in
  let rng = Prng.create 3 in
  List.iter
    (fun spec ->
      let t = Naive.build rng spec g in
      Alcotest.(check int) (Naive.name spec ^ " spans") 14 (List.length (Tree.edge_list t));
      Alcotest.(check int) (Naive.name spec ^ " rooted at min id") 0 (Tree.root t))
    Naive.all

let test_naive_names_distinct () =
  let names = List.map Naive.name Naive.all in
  Alcotest.(check int) "distinct names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_naive_bfs_on_star_is_bad () =
  let g = Gen.star 8 in
  let rng = Prng.create 1 in
  Alcotest.(check int) "star has only one tree" 7 (Naive.degree rng Naive.Bfs g)

(* ---------------- Blin–Butelle-style serialized comparator ---------------- *)

module Bb = Mdst_baseline.Bb

let test_bb_reaches_low_degree () =
  List.iter
    (fun (name, g, bound) ->
      let r = Bb.converge ~seed:1 g in
      check (name ^ " converged") true r.converged;
      match r.degree with
      | Some d -> check (Printf.sprintf "%s degree %d <= %d" name d bound) true (d <= bound)
      | None -> Alcotest.fail (name ^ ": no tree"))
    [
      ("ring", Gen.ring 8, 2);
      ("wheel", Gen.wheel 9, 3);
      ("complete", Graph.complete 8, 2);
      ("grid", Gen.grid ~rows:4 ~cols:4, 3);
    ]

let test_bb_counts_phases () =
  (* A complete graph's BFS tree is a star: several serialized phases are
     needed to flatten it. *)
  let r = Bb.converge ~seed:2 (Graph.complete 8) in
  check "multiple phases" true (r.phases_run >= 4)

let test_bb_no_op_on_path () =
  let r = Bb.converge ~seed:1 (Gen.path 8) in
  check "converged" true r.converged;
  Alcotest.(check int) "zero phases on a path" 0 r.phases_run

let test_bb_serializes_on_hubs () =
  (* With h simultaneous hubs, the serialized algorithm needs at least h
     phases before the tree degree can drop — one per hub. *)
  let cliques = 3 and clique_size = 6 in
  let graph = Gen.star_of_cliques ~cliques ~clique_size in
  let parents = Array.make (Graph.n graph) (Graph.n graph - 1) in
  parents.(Graph.n graph - 1) <- Graph.n graph - 1;
  for c = 0 to cliques - 1 do
    for i = 1 to clique_size - 1 do
      parents.((c * clique_size) + i) <- c * clique_size
    done
  done;
  let tree = Tree.of_parents graph ~root:(Graph.n graph - 1) parents in
  let k0 = Tree.max_degree tree in
  let engine = Bb.Sim.create ~seed:3 ~init:(`Custom (Bb.state_of_tree tree)) graph in
  let stop t =
    match Bb.extract_degree graph (Bb.Sim.states t) with Some k -> k < k0 | None -> false
  in
  let o = Bb.Sim.run engine ~max_rounds:100_000 ~check_every:2 ~stop () in
  check "eventually drops" true o.converged;
  (* The stop fires as soon as the last swap is visible, possibly before the
     root's phase acknowledgement arrives — hence the -1. *)
  let root_state = Bb.Sim.state engine (Graph.n graph - 1) in
  check "about one phase per hub" true (Bb.phases root_state >= cliques - 1)

let test_bb_membership_tables_grow () =
  (* The Θ(n log n) membership cost: metered state grows superlinearly in n
     relative to the degree bound on a path-of-cliques. *)
  let r_small = Bb.converge ~seed:1 (Gen.lollipop ~clique:4 ~tail:8) in
  let r_large = Bb.converge ~seed:1 (Gen.lollipop ~clique:4 ~tail:24) in
  check "tables grow with n at fixed degree" true
    (r_large.max_state_bits > (3 * r_small.max_state_bits / 2))

let test_bb_debug_dump () =
  let g = Gen.ring 6 in
  let engine = Bb.Sim.create ~seed:1 ~init:(`Custom (Bb.state_of_tree (Mdst_graph.Algo.bfs_tree g ~root:0))) g in
  let s = Bb.debug_dump (Bb.Sim.state engine 0) in
  check "dump mentions phase" true (String.length s > 10)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "baseline"
    [
      ( "exact",
        [
          Alcotest.test_case "known values" `Quick test_exact_known_values;
          Alcotest.test_case "bipartite" `Quick test_exact_bipartite;
          Alcotest.test_case "witness tree" `Quick test_exact_witness_tree_valid;
          Alcotest.test_case "budget" `Quick test_exact_budget;
          Alcotest.test_case "tiny graphs" `Quick test_exact_tiny_graphs;
          Alcotest.test_case "deblock gadget" `Quick test_exact_gadget;
          Alcotest.test_case "rejects disconnected" `Quick test_exact_rejects_disconnected;
          Alcotest.test_case "decision variant" `Quick test_spanning_tree_with_degree;
          Alcotest.test_case "lower bound" `Quick test_lower_bound;
          q prop_exact_leq_any_tree;
        ] );
      ( "fr",
        [
          Alcotest.test_case "fixpoint not improvable" `Quick test_fr_fixpoint_not_improvable;
          Alcotest.test_case "drives star to ham path" `Quick test_fr_improves_star_in_clique;
          Alcotest.test_case "no-op on optimal tree" `Quick test_fr_run_counts;
          Alcotest.test_case "reduce_node_once" `Quick test_fr_reduce_node_once;
          q prop_fr_within_one_of_optimum;
          q prop_fr_never_worse_than_start;
        ] );
      ( "naive",
        [
          Alcotest.test_case "all span" `Quick test_naive_all_span;
          Alcotest.test_case "names distinct" `Quick test_naive_names_distinct;
          Alcotest.test_case "star forced" `Quick test_naive_bfs_on_star_is_bad;
        ] );
      ( "blin-butelle",
        [
          Alcotest.test_case "reaches low degree" `Quick test_bb_reaches_low_degree;
          Alcotest.test_case "counts phases" `Quick test_bb_counts_phases;
          Alcotest.test_case "no-op on a path" `Quick test_bb_no_op_on_path;
          Alcotest.test_case "serializes over hubs" `Slow test_bb_serializes_on_hubs;
          Alcotest.test_case "membership tables grow" `Quick test_bb_membership_tables_grow;
          Alcotest.test_case "debug dump" `Quick test_bb_debug_dump;
        ] );
    ]
