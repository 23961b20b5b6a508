(* Opt-in liveness sweep: run many small instances to the Fürer–Raghavachari
   fixpoint and report every instance that has not got there within the
   round cap — the quiet stalls a fixed-seed test suite is too small to
   meet.

     dune exec bench/liveness.exe        (or: make liveness)

   Asynchronous daemon, clean start: instance i of the grid family is a
   5x5 grid with random ids drawn from the (i+1)-th split of
   [Prng.create 12345] (the derivation of perfbench/README.md), run with
   engine seed i; the ER family draws connected ER n=20 graphs (average
   degree 4, random ids) the same way from [Prng.create 20]; and the 96
   instances of perfbench's [er-clean] workload at seed 6 are drawn as
   perfbench draws them.  Synchronous daemon, adversarial start: 4x4 grids
   with random ids from [Prng.create 44] and connected ER graphs of
   n = 12, 16, 20 and 24 from [Prng.create n].  Each stall prints one line
   naming the daemon, the cap and the instance as an
   [n=..;ids=..;edges=..;seed=..] reproducer; the exit code is 1 when any
   instance stalled. *)

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

let async ~seed g = (Run.converge ~seed ~max_rounds ~fixpoint g).converged

let sync ~seed g =
  (Mdst_core.Sync_run.converge ~seed ~init:`Random ~max_rounds ~fixpoint g).converged

(* Instance [i] is the [i]-th draw of [instance] from [root]; [instance]
   returns the graph and the engine seed. *)
let sweep ~family ~daemon ~instances ~root instance converged =
  let stalls = ref 0 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to instances - 1 do
    let g, seed = instance i (Prng.split root) in
    if not (converged ~seed g) then begin
      incr stalls;
      Printf.printf "stall: %s %s, not at the FR fixpoint after %d rounds: %s\n%!" family daemon
        max_rounds
        (String.concat ";" (Mdst_check.Repro.common g ~seed))
    end
  done;
  Printf.printf "%-14s %-5s %5d instances  (%.0f s)\n%!" family daemon instances
    (Unix.gettimeofday () -. t0);
  !stalls

let seeded gen i rng = (gen rng, i)

(* perfbench's [Workload.instance] for [er-clean]: the engine seed comes
   from a split drawn before the graph. *)
let er_clean _ rng =
  let aux = Prng.split rng in
  let seed = Prng.int aux 1_000_000_000 in
  (er20 rng, seed)

let er n rng =
  Gen.with_random_ids rng (Gen.erdos_renyi_connected rng ~n ~p:(4.0 /. float_of_int (n - 1)))

let () =
  (* One sweep after the other, in this order (a list's elements would be
     evaluated right to left). *)
  let sweeps =
    [
      (fun () ->
        sweep ~family:"grid5x5" ~daemon:"async" ~instances:2000 ~root:(Prng.create 12345)
          (seeded grid) async);
      (fun () ->
        sweep ~family:"er20" ~daemon:"async" ~instances:1500 ~root:(Prng.create 20)
          (seeded er20) async);
      (fun () ->
        sweep ~family:"er-clean/6" ~daemon:"async" ~instances:96
          ~root:(Prng.create (Prng.seed_of_string "er-clean/6"))
          er_clean async);
      (fun () ->
        sweep ~family:"grid4x4" ~daemon:"sync" ~instances:500 ~root:(Prng.create 44)
          (seeded (fun rng -> Gen.with_random_ids rng (Gen.grid ~rows:4 ~cols:4)))
          sync);
    ]
    @ List.map
        (fun n () ->
          sweep ~family:(Printf.sprintf "er%d" n) ~daemon:"sync" ~instances:250
            ~root:(Prng.create n) (seeded (er n)) sync)
        [ 12; 16; 20; 24 ]
  in
  let stalls = List.fold_left (fun acc run -> acc + run ()) 0 sweeps in
  Printf.printf "liveness: %d stall(s)\n" stalls;
  if stalls > 0 then exit 1
