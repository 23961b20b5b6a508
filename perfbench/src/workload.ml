(* The four workloads and how a seed turns into their instances.

   Every instance is drawn from its own split of one root stream derived
   from (workload, seed), so a seed always yields the same instance set.
   Instances are small enough that one pass over the whole set fits a few
   seconds: run-to-run spread across seeds falls with the number of
   instances averaged, and each instance is run all the way to the
   Fürer–Raghavachari fixpoint, never to a quiet spell alone. *)

module Graph = Mdst_graph.Graph
module Gen = Mdst_graph.Gen
module Prng = Mdst_util.Prng
module Latency = Mdst_sim.Latency
module Fault = Mdst_sim.Fault

type engine = Sequential | Sharded of int  (** domains *)

type t = {
  name : string;
  instances : int;  (** per pass *)
  engine : engine;
  init : Mdst_core.Run.init;
  graph : Prng.t -> Graph.t;  (** ids included *)
  latency : Prng.t -> Latency.t;
  faults : Graph.t -> Prng.t -> Fault.plan;  (** channel faults installed before the run *)
  corrupt : float option;  (** corrupt this fraction after convergence, then re-converge *)
}

let er n rng =
  let g = Gen.erdos_renyi_connected rng ~n ~p:(4.0 /. float_of_int (n - 1)) in
  Gen.with_random_ids rng g

let uniform _ = Latency.uniform ()
let no_faults _ _ = Fault.empty

(* Drop, duplicate and reorder traffic on a few random channels during the
   first rounds only, so every run still ends fault-free and converges. *)
let early_channel_faults graph rng =
  let edges = Graph.edges graph in
  let window = { Fault.from_round = 0; upto_round = 40 } in
  let channel () =
    let u, v = Prng.choose rng edges in
    if Prng.bool rng then (u, v) else (v, u)
  in
  let events =
    List.concat_map
      (fun () ->
        let s1, d1 = channel () and s2, d2 = channel () and s3, d3 = channel () in
        [
          Fault.Drop { window; src = s1; dst = d1; prob = 0.3 };
          Fault.Duplicate { window; src = s2; dst = d2; prob = 0.3; copies = 1 };
          Fault.Reorder { window; src = s3; dst = d3; prob = 0.3; delay = 3.0 };
        ])
      [ (); () ]
  in
  { Fault.plan_seed = Prng.int rng 1_000_000; events }

let all =
  [
    (* The improvement pipeline (Search, swaps, Deblock) and the sequential
       engine's per-event path do the work. *)
    {
      name = "er-clean";
      instances = 96;
      engine = Sequential;
      init = `Clean;
      graph = er 20;
      latency = uniform;
      faults = no_faults;
      corrupt = None;
    };
    (* Already a tree: Search never runs and the hub's Info fan-out
       dominates, so protocol-message changes should show no change. *)
    {
      name = "star-hub";
      instances = 3;
      engine = Sequential;
      init = `Clean;
      graph = (fun rng -> Gen.with_random_ids rng (Gen.star 1024));
      latency = uniform;
      faults = no_faults;
      corrupt = None;
    };
    (* Repair instead of construction, plus the fault layer and the
       non-uniform latency path. *)
    {
      name = "er-recover";
      instances = 160;
      engine = Sequential;
      init = `Random;
      graph = er 12;
      latency = (fun rng -> Latency.by_name "slow-links" (Prng.int rng 1_000_000));
      faults = early_channel_faults;
      corrupt = Some 0.25;
    };
    (* The only workload on the sharded engine: partitioning, windows,
       mailboxes and a domain spawn per window. *)
    {
      name = "grid-sharded";
      instances = 320;
      engine = Sharded 2;
      init = `Clean;
      graph = (fun rng -> Gen.with_random_ids rng (Gen.grid ~rows:4 ~cols:4));
      latency = uniform;
      faults = no_faults;
      corrupt = None;
    };
  ]

let find name =
  match List.find_opt (fun w -> w.name = name) all with
  | Some w -> w
  | None -> invalid_arg ("unknown workload: " ^ name)

type instance = {
  index : int;
  graph : Graph.t;
  engine_seed : int;
  latency : Latency.t;
  plan : Fault.plan;
}

(* Everything but the graph is drawn before the graph, from a separate
   split, so the generator's draw count cannot shift the other inputs. *)
let instance (w : t) ~root index =
  let rng = Prng.split root in
  let aux = Prng.split rng in
  let engine_seed = Prng.int aux 1_000_000_000 in
  let latency = w.latency aux in
  let graph = w.graph rng in
  { index; graph; engine_seed; latency; plan = w.faults graph aux }

let root (w : t) ~seed = Prng.create (Prng.seed_of_string (Printf.sprintf "%s/%d" w.name seed))
