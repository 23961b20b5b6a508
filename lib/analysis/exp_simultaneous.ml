(* E6 / Table 4 — simultaneous reduction of several maximum-degree nodes.

   The paper's stated advantage over the distributed FR of Blin–Butelle [3]
   is that fundamental-cycle detection lets *every* max-degree node shed an
   edge concurrently.  We build a star-of-cliques whose initial spanning
   tree has one max-degree hub per clique, and measure the rounds until the
   tree degree first drops below its initial value.  If reductions were
   serialised, this first phase would grow linearly with the number of
   hubs; concurrent reductions keep it nearly flat. *)

open Exp_common
module Gen = Mdst_graph.Gen
module Sim = Run.Sim

(* Spanning tree with one deg-(clique_size) node per clique: hub -> node0 of
   each clique -> the rest of its clique, star-wise. *)
let hubby_tree graph ~cliques ~clique_size =
  let n = Graph.n graph in
  let hub = n - 1 in
  let parents = Array.make n hub in
  parents.(hub) <- hub;
  for c = 0 to cliques - 1 do
    let base = c * clique_size in
    parents.(base) <- hub;
    for i = 1 to clique_size - 1 do
      parents.(base + i) <- base
    done
  done;
  Mdst_graph.Tree.of_parents graph ~root:hub parents

let first_drop_rounds ~cliques ~clique_size ~seed =
  let graph = Gen.star_of_cliques ~cliques ~clique_size in
  let tree = hubby_tree graph ~cliques ~clique_size in
  let k0 = Mdst_graph.Tree.max_degree tree in
  let engine = Run.make_engine ~seed ~init:(`Tree tree) graph in
  let stop t =
    match Mdst_core.Checker.tree_degree_now (Sim.graph t) (Sim.states t) with
    | Some k -> k < k0
    | None -> false
  in
  let outcome = Sim.run engine ~max_rounds:20_000 ~check_every:2 ~stop () in
  (k0, (if outcome.converged then Some outcome.rounds else None))

let run ?(quick = false) () =
  let table =
    Table.make
      ~title:"E6: first reduction phase vs number of simultaneous max-degree nodes"
      ~columns:[ "cliques"; "n"; "initial deg"; "max-deg nodes"; "rounds to first drop" ]
  in
  let clique_size = 8 in
  let counts = if quick then [ 3; 5 ] else [ 3; 4; 5; 6; 8 ] in
  List.iter
    (fun cliques ->
      let runs = List.map (fun seed -> first_drop_rounds ~cliques ~clique_size ~seed) (seeds 3) in
      let k0 = fst (List.hd runs) in
      let rounds = List.filter_map snd runs in
      Table.add_row table
        [
          Table.cell_int cliques;
          Table.cell_int ((cliques * clique_size) + 1);
          Table.cell_int k0;
          Table.cell_int cliques;
          (match rounds with [] -> "-" | _ -> Table.cell_int (median_int rounds));
        ])
    counts;
  Table.add_note table
    "near-flat rounds across rows = concurrent improvements (paper's contrast with [3])";
  [ table ]
