(* Benchmark binary.

   Part 1 regenerates every table and figure of EXPERIMENTS.md (experiments
   E1..E20) through the analysis harness — `--quick` shrinks sizes/seeds,
   `--only E3` selects one experiment, `--bench-json FILE` additionally
   persists the E19 engine macro-bench points as JSON and `--proto-json
   FILE` the E20 protocol macro-bench points.

   Part 2 runs Bechamel micro-benchmarks of the hot substrate paths (one
   Test.make per experiment family plus the primitives they lean on), so
   regressions in the simulator or the solvers are visible independently of
   the experiment-level numbers.  `--skip-micro` omits it. *)

open Bechamel
open Toolkit
module Gen = Mdst_graph.Gen
module Graph = Mdst_graph.Graph
module Tree = Mdst_graph.Tree
module Algo = Mdst_graph.Algo
module Prng = Mdst_util.Prng

(* ---------------- micro-benchmarks ---------------- *)

let bench_graph_generation =
  Test.make ~name:"E-substrate: generate er-64"
    (Staged.stage (fun () -> ignore (Gen.erdos_renyi_connected (Prng.create 1) ~n:64 ~p:0.1)))

let bench_fundamental_cycle =
  let g = Gen.erdos_renyi_connected (Prng.create 2) ~n:64 ~p:0.1 in
  let t = Algo.bfs_tree g ~root:0 in
  let nte = Array.of_list (Tree.non_tree_edges t) in
  let i = ref 0 in
  Test.make ~name:"E-substrate: fundamental cycle (n=64)"
    (Staged.stage (fun () ->
         let e = nte.(!i mod Array.length nte) in
         incr i;
         ignore (Tree.fundamental_cycle t e)))

let bench_wilson =
  let g = Gen.erdos_renyi_connected (Prng.create 3) ~n:64 ~p:0.1 in
  let rng = Prng.create 4 in
  Test.make ~name:"E2: uniform random spanning tree (n=64)"
    (Staged.stage (fun () -> ignore (Algo.random_spanning_tree rng g ~root:0)))

let bench_fr =
  let g = Gen.erdos_renyi_connected (Prng.create 5) ~n:32 ~p:0.15 in
  Test.make ~name:"E1: FR sequential approx (n=32)"
    (Staged.stage (fun () -> ignore (Mdst_baseline.Fr.approx_mdst g)))

let bench_exact =
  let g = Gen.erdos_renyi_connected (Prng.create 6) ~n:12 ~p:0.3 in
  Test.make ~name:"E1: exact branch-and-bound (n=12)"
    (Staged.stage (fun () -> ignore (Mdst_baseline.Exact.solve g)))

let bench_engine_steps =
  let g = Gen.erdos_renyi_connected (Prng.create 7) ~n:24 ~p:0.2 in
  Test.make ~name:"E3: 1000 simulator events (n=24)"
    (Staged.stage (fun () ->
         let e = Mdst_core.Run.make_engine ~seed:3 g in
         for _ = 1 to 1000 do
           ignore (Mdst_core.Run.Sim.step e)
         done))

let bench_full_convergence =
  Test.make ~name:"E1: full convergence, ring-8, corrupted start"
    (Staged.stage (fun () ->
         ignore (Mdst_core.Run.converge ~seed:5 ~init:`Random (Gen.ring 8))))

let bench_prufer =
  let rng = Prng.create 8 in
  Test.make ~name:"E-substrate: prufer encode/decode (n=64)"
    (Staged.stage (fun () ->
         let edges = Mdst_graph.Prufer.random_tree rng ~n:64 in
         let seq = Mdst_graph.Prufer.encode ~n:64 edges in
         ignore (Mdst_graph.Prufer.decode ~n:64 seq)))

let bench_checker =
  let g = Gen.erdos_renyi_connected (Prng.create 9) ~n:32 ~p:0.15 in
  let e = Mdst_core.Run.make_engine ~seed:4 g in
  for _ = 1 to 20_000 do
    ignore (Mdst_core.Run.Sim.step e)
  done;
  let states = Mdst_core.Run.Sim.states e in
  Test.make ~name:"E-substrate: global legitimacy check (n=32)"
    (Staged.stage (fun () -> ignore (Mdst_core.Checker.legitimate g states)))

let bench_sync_rounds =
  let g = Gen.erdos_renyi_connected (Prng.create 10) ~n:24 ~p:0.2 in
  Test.make ~name:"E12: 50 synchronous rounds (n=24)"
    (Staged.stage (fun () ->
         let e = Mdst_core.Run.make_engine ~seed:3 g in
         for _ = 1 to 50 do
           Mdst_core.Run.Sim.sync_round e
         done))

let bench_pif_wave =
  let g = Gen.grid ~rows:4 ~cols:4 in
  let tree = Algo.bfs_tree g ~root:0 in
  let module I = struct
    let parent_of id = Graph.id g (Tree.parent tree (Graph.index_of_id g id))

    let value_of id = id

    let combine = max

    let neutral = min_int
  end in
  let module A = Mdst_core.Pif.Make (I) in
  let module E = Mdst_sim.Pengine.Make (A) in
  Test.make ~name:"E-substrate: PIF wave to completion (n=16)"
    (Staged.stage (fun () ->
         let e = E.create ~seed:2 g in
         let stop t = (E.state t 0).Mdst_core.Pif.result <> None in
         ignore (E.run e ~max_rounds:10_000 ~check_every:1 ~stop ())))

let micro_tests =
  [
    bench_graph_generation;
    bench_fundamental_cycle;
    bench_wilson;
    bench_fr;
    bench_exact;
    bench_engine_steps;
    bench_sync_rounds;
    bench_pif_wave;
    bench_full_convergence;
    bench_prufer;
    bench_checker;
  ]

let run_micro () =
  print_endline "\n######## Bechamel micro-benchmarks ########\n";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      Hashtbl.iter
        (fun name raw ->
          match Analyze.one ols instance raw with
          | result -> (
              match Analyze.OLS.estimates result with
              | Some [ est ] -> Printf.printf "%-50s %12.1f ns/run\n%!" name est
              | _ -> Printf.printf "%-50s (no estimate)\n%!" name)
          | exception _ -> Printf.printf "%-50s (analysis failed)\n%!" name)
        results)
    micro_tests

(* ---------------- entry point ---------------- *)

let () =
  let quick = Array.exists (( = ) "--quick") Sys.argv in
  let skip_micro = Array.exists (( = ) "--skip-micro") Sys.argv in
  let only = ref None in
  let bench_json = ref None in
  let proto_json = ref None in
  Array.iteri
    (fun i a ->
      if i + 1 < Array.length Sys.argv then begin
        if a = "--only" then only := Some Sys.argv.(i + 1);
        if a = "--bench-json" then bench_json := Some Sys.argv.(i + 1);
        if a = "--proto-json" then proto_json := Some Sys.argv.(i + 1)
      end)
    Sys.argv;
  (match !only with
  | Some id ->
      let e = Mdst_analysis.Registry.find id in
      Printf.printf "%s — %s\nclaim: %s\n\n" e.id e.title e.claim;
      List.iter Mdst_analysis.Table.print (e.run ~quick ())
  | None ->
      print_endline "######## Experiment suite (EXPERIMENTS.md tables & figures) ########";
      Mdst_analysis.Registry.run_all ~quick ());
  (match !bench_json with
  | Some path ->
      (* The E19 macro-bench points, re-measured and persisted: the same
         payload `mdst_sim bench` writes, honoring --quick. *)
      let points = Mdst_analysis.Bench_engine.points ~quick () in
      Mdst_analysis.Bench_engine.write_json ~path ~quick points;
      Printf.printf "wrote %s (%d points)\n%!" path (List.length points)
  | None -> ());
  (match !proto_json with
  | Some path ->
      (* The E20 protocol macro-bench points, same scheme as --bench-json:
         what `mdst_sim bench --proto` writes, honoring --quick. *)
      let points = Mdst_analysis.Bench_proto.points ~quick () in
      Mdst_analysis.Bench_proto.write_json ~path ~quick points;
      Printf.printf "wrote %s (%d points)\n%!" path (List.length points)
  | None -> ());
  if not skip_micro then run_micro ()
