(* E7 / Figure C — the degree-over-time staircase of the reduction process
   (paper Figure 4's pipeline, observed from outside).  Starting from a
   deliberately bad spanning tree, deg(T) steps down once per phase until
   the Δ*+1 fixpoint; transient dips where the tree is momentarily being
   re-oriented are part of the picture and are shown as "-". *)

open Exp_common
module Sim = Run.Sim
module Gen = Mdst_graph.Gen
module Algo = Mdst_graph.Algo

let trajectory graph ~init ~seed ~max_rounds =
  let engine = Run.make_engine ~seed ~init graph in
  let samples = ref [] in
  let last_deg = ref (-2) in
  let stop_oracle = Run.make_stop ~fixpoint () in
  let stop t =
    let deg =
      match Mdst_core.Checker.tree_degree_now (Sim.graph t) (Sim.states t) with
      | Some k -> k
      | None -> -1
    in
    if deg <> !last_deg then begin
      last_deg := deg;
      samples := (Sim.rounds t, deg) :: !samples
    end;
    stop_oracle t
  in
  ignore (Sim.run engine ~max_rounds ~check_every:2 ~stop ());
  List.rev !samples

let star_tree graph =
  (* Worst legal start on a lollipop: the clique part is a star around one
     clique node, maximising its degree. *)
  Algo.bfs_tree graph ~root:0

let run ?(quick = false) () =
  let mk_table name graph init seed =
    let table =
      Table.make
        ~title:(Printf.sprintf "E7: deg(T) trajectory on %s (\"-\" = tree re-orienting)" name)
        ~columns:[ "round"; "deg(T)" ]
    in
    let samples = trajectory graph ~init ~seed ~max_rounds:30_000 in
    List.iter
      (fun (round, deg) ->
        Table.add_row table
          [ Table.cell_int round; (if deg >= 0 then Table.cell_int deg else "-") ])
      samples;
    table
  in
  let lollipop = Gen.lollipop ~clique:8 ~tail:6 in
  let tables = [ mk_table "lollipop-8+6 (from BFS star tree)" lollipop (`Tree (star_tree lollipop)) 3 ] in
  if quick then tables
  else begin
    let er = Workloads.er_with ~n:24 ~avg_deg:5.0 9 in
    tables @ [ mk_table "er-24 (from corrupted state)" er `Random 4 ]
  end
