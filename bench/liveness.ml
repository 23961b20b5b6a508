(* Opt-in liveness sweep: run many small instances to the Fürer–Raghavachari
   fixpoint from a clean start, on the sequential engine and on the sharded
   engine with one domain, and report every instance that has not got there
   within the round cap — the quiet stalls a fixed-seed test suite is too
   small to meet.

     dune exec bench/liveness.exe        (or: make liveness)

   The grid family is the derivation of perfbench/README.md: instance i is
   a 5x5 grid with random ids drawn from the (i+1)-th split of
   [Prng.create 12345], run with engine seed i.  The ER family draws
   connected ER n=20 graphs (average degree 4, random ids) the same way
   from [Prng.create 20].  Each stall prints one line naming the engine,
   the cap and the instance as an [n=..;ids=..;edges=..;seed=..]
   reproducer; the exit code is 1 when any instance stalled. *)

module Gen = Mdst_graph.Gen
module Prng = Mdst_util.Prng
module Run = Mdst_core.Run
module Fr = Mdst_baseline.Fr

let max_rounds = 8000

let fixpoint tree = not (Fr.improvable tree)

let grid rng = Gen.with_random_ids rng (Gen.grid ~rows:5 ~cols:5)

let er20 rng =
  let g = Gen.erdos_renyi_connected rng ~n:20 ~p:(4.0 /. 19.0) in
  Gen.with_random_ids rng g

let engines =
  [
    ("engine", fun ~seed g -> Run.converge ~seed ~max_rounds ~fixpoint g);
    ("pengine-k1", fun ~seed g -> Run.converge_par ~seed ~max_rounds ~fixpoint ~domains:1 g);
  ]

let sweep ~family ~root_seed ~instances gen =
  let stalls = ref 0 in
  List.iter
    (fun (engine, converge) ->
      let root = Prng.create root_seed in
      let t0 = Unix.gettimeofday () in
      for seed = 0 to instances - 1 do
        let g = gen (Prng.split root) in
        let r : Run.result = converge ~seed g in
        if not r.converged then begin
          incr stalls;
          Printf.printf "stall: %s %s, not at the FR fixpoint after %d rounds: %s\n%!" family
            engine max_rounds
            (String.concat ";" (Mdst_check.Repro.common g ~seed))
        end
      done;
      Printf.printf "%-10s %-10s %5d instances  (%.0f s)\n%!" family engine instances
        (Unix.gettimeofday () -. t0))
    engines;
  !stalls

let () =
  let grid_stalls = sweep ~family:"grid5x5" ~root_seed:12345 ~instances:2000 grid in
  let er_stalls = sweep ~family:"er20" ~root_seed:20 ~instances:1500 er20 in
  let stalls = grid_stalls + er_stalls in
  Printf.printf "liveness: %d stall(s)\n" stalls;
  if stalls > 0 then exit 1
