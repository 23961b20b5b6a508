(* E14 — head-to-head with the serialized distributed comparator (the
   Blin–Butelle [3] lineage, our {!Mdst_baseline.Bb}).

   The paper's §1 claims two advantages over [3]:
   1. concurrency — fundamental-cycle detection lets all maximum-degree
      nodes shed edges simultaneously, where [3] serializes improvements
      through fragment bookkeeping.  We time "rounds until deg(T) drops
      below its initial value" on the star-of-cliques workload: that drop
      requires *every* hub to be reduced, so the serialized comparator
      scales linearly with the number of hubs while the paper's protocol
      stays near-flat (cf. E6);
   2. memory — O(δ log n) bits per node versus the Θ(n log n) membership
      tables [3]-style algorithms maintain.  We meter both. *)

open Exp_common
module Bb = Mdst_baseline.Bb
module Gen = Mdst_graph.Gen

let bb_first_drop ~cliques ~clique_size ~seed =
  let graph = Gen.star_of_cliques ~cliques ~clique_size in
  let tree = Exp_simultaneous.hubby_tree graph ~cliques ~clique_size in
  let k0 = Mdst_graph.Tree.max_degree tree in
  let engine = Bb.Sim.create ~seed ~init:(`Custom (Bb.state_of_tree tree)) graph in
  let stop t =
    (match Bb.extract_degree (Bb.Sim.graph t) (Bb.Sim.states t) with
    | Some k -> k < k0
    | None -> false)
    || Bb.finished (Bb.Sim.state t (Mdst_graph.Tree.root tree))
  in
  let o = Bb.Sim.run engine ~max_rounds:100_000 ~check_every:2 ~stop () in
  let dropped =
    match Bb.extract_degree graph (Bb.Sim.states engine) with Some k -> k < k0 | None -> false
  in
  let bits = Mdst_sim.Metrics.max_state_bits (Bb.Sim.metrics engine) in
  ((if o.converged && dropped then Some o.rounds else None), bits)

let ours_state_bits ~cliques ~clique_size ~seed =
  let graph = Gen.star_of_cliques ~cliques ~clique_size in
  let tree = Exp_simultaneous.hubby_tree graph ~cliques ~clique_size in
  let r = Run.converge ~seed ~init:(`Tree tree) ~max_rounds:30_000 graph in
  r.max_state_bits

let run ?(quick = false) () =
  let clique_size = 8 in
  let table =
    Table.make
      ~title:"E14: concurrent (paper) vs serialized ([3]-style) reduction of all hubs"
      ~columns:
        [
          "cliques (= hubs)"; "n"; "paper: rounds"; "BB: rounds"; "paper: state bits";
          "BB: state bits";
        ]
  in
  let counts = if quick then [ 3; 5 ] else [ 3; 4; 5; 6; 8 ] in
  List.iter
    (fun cliques ->
      let ours =
        List.filter_map
          (fun seed -> snd (Exp_simultaneous.first_drop_rounds ~cliques ~clique_size ~seed))
          (seeds 3)
      in
      let bb = List.map (fun seed -> bb_first_drop ~cliques ~clique_size ~seed) (seeds 3) in
      let bb_rounds = List.filter_map fst bb in
      let bb_bits = List.fold_left (fun acc (_, b) -> max acc b) 0 bb in
      let our_bits = ours_state_bits ~cliques ~clique_size ~seed:101 in
      Table.add_row table
        [
          Table.cell_int cliques;
          Table.cell_int ((cliques * clique_size) + 1);
          (match ours with [] -> "-" | _ -> Table.cell_int (median_int ours));
          (match bb_rounds with [] -> "-" | _ -> Table.cell_int (median_int bb_rounds));
          Table.cell_int our_bits;
          Table.cell_int bb_bits;
        ])
    counts;
  Table.add_note table
    "the drop requires reducing EVERY hub: serialized phases scale with the hub count, concurrent ones do not";
  Table.add_note table
    "state bits: paper O(delta log n) vs BB-style Theta(n log n) membership tables";
  [ table ]
