(* Cross-library integration tests: the protocol against the exact solver
   and the FR oracle over randomized instances, differential behaviour of
   the ablation variants, robustness across latency models, and the paper's
   end-to-end guarantees.  These are the tests that tie Theorem 2, the
   self-stabilization definition, and the Δ*+1 bound together. *)

module Graph = Mdst_graph.Graph
module Gen = Mdst_graph.Gen
module Tree = Mdst_graph.Tree
module Prng = Mdst_util.Prng
module Run = Mdst_core.Run
module Fr = Mdst_baseline.Fr
module Exact = Mdst_baseline.Exact
module Latency = Mdst_sim.Latency

let check = Alcotest.(check bool)

let fixpoint t = not (Fr.improvable t)

let converge ?(seed = 5) ?(init = `Random) ?latency graph =
  Run.converge ~seed ~init ?latency ~max_rounds:50_000 ~fixpoint graph

(* The headline guarantee, property-tested: random connected graph, random
   corrupted start, protocol result within one of the exact optimum. *)
let prop_protocol_within_one_of_optimum =
  QCheck.Test.make ~name:"protocol final degree <= Delta* + 1 (random graphs, random starts)"
    ~count:12
    QCheck.(pair (int_range 1 1000) (int_range 6 12))
    (fun (seed, n) ->
      let g = Gen.erdos_renyi_connected (Prng.create (seed * 31)) ~n ~p:0.35 in
      let r = converge ~seed g in
      match (r.degree, Exact.solve g) with
      | Some d, Some e -> r.converged && d <= e.optimum + 1
      | _ -> false)

(* Protocol and centralized FR must agree at fixpoints: the protocol's final
   tree admits no FR improvement, and both land within the same band. *)
let prop_protocol_matches_fr_band =
  QCheck.Test.make ~name:"protocol tree is an FR fixpoint in the same band as FR's own"
    ~count:10
    QCheck.(int_range 1 500)
    (fun seed ->
      let g = Gen.erdos_renyi_connected (Prng.create (seed * 7)) ~n:12 ~p:0.3 in
      let r = converge ~seed g in
      match r.tree with
      | None -> false
      | Some t ->
          let fr = Tree.max_degree (Fr.approx_mdst g) in
          (not (Fr.improvable t)) && abs (Tree.max_degree t - fr) <= 1)

let test_structured_families_exact () =
  (* Families where Delta* is known: the protocol must land at Delta* or
     Delta*+1 from a corrupted start. *)
  let cases =
    [
      ("ring", Gen.ring 10, 2);
      ("wheel", Gen.wheel 10, 2);
      ("complete", Graph.complete 8, 2);
      ("petersen", Gen.petersen (), 2);
      ("grid", Gen.grid ~rows:3 ~cols:4, 2);
      ("hypercube", Gen.hypercube 3, 2);
      ("K_{2,5}", Gen.complete_bipartite 2 5, 3);
      ("star", Gen.star 9, 8);
    ]
  in
  List.iter
    (fun (name, g, delta_star) ->
      let r = converge ~seed:3 g in
      check (name ^ " converged") true r.converged;
      match r.degree with
      | Some d -> check (Printf.sprintf "%s degree %d within %d+1" name d delta_star) true (d <= delta_star + 1)
      | None -> Alcotest.fail (name ^ ": no tree"))
    cases

let test_latency_models_all_converge () =
  let g = Gen.erdos_renyi_connected (Prng.create 12) ~n:12 ~p:0.3 in
  let optimum = match Exact.solve g with Some e -> e.optimum | None -> Alcotest.fail "exact" in
  List.iter
    (fun name ->
      let r = converge ~seed:6 ~latency:(Latency.by_name name 3) g in
      check (name ^ " converged") true r.converged;
      match r.degree with
      | Some d -> check (name ^ " within bound") true (d <= optimum + 1)
      | None -> Alcotest.fail (name ^ " no tree"))
    Latency.names

let test_recovery_from_every_fraction () =
  let g = Gen.erdos_renyi_connected (Prng.create 20) ~n:14 ~p:0.3 in
  List.iter
    (fun fraction ->
      let r = Run.converge_corrupt_recover ~seed:2 ~fixpoint ~fraction g in
      check (Printf.sprintf "recovered from %.0f%%" (fraction *. 100.0)) true
        (r.recovery_rounds <> None))
    [ 0.25; 0.5; 1.0 ]

let test_deblock_ablation_differential () =
  (* On K_{2,6} reaching Delta*+1 needs unblocking chains; without Deblock
     the run may stall higher, never lower.  Differentially: full >= ablated
     never happens (ablated cannot beat full). *)
  let module NoDeblock = Run.Runner (Mdst_core.Proto.No_deblock) in
  let g = Gen.complete_bipartite 2 6 in
  let full = converge ~seed:4 ~init:`Clean g in
  let ablated = NoDeblock.converge ~seed:4 ~init:`Clean ~quiet_rounds:200 g in
  match (full.degree, ablated.degree) with
  | Some df, Some da -> check "ablated never better" true (da >= df)
  | _ -> Alcotest.fail "missing results"

let test_prune_ablation_equivalent_quality () =
  let module NoPrune = Run.Runner (Mdst_core.Proto.No_prune) in
  let g = Gen.erdos_renyi_connected (Prng.create 9) ~n:10 ~p:0.35 in
  let pruned = converge ~seed:8 ~init:`Clean g in
  let noisy = NoPrune.converge ~seed:8 ~init:`Clean ~fixpoint g in
  check "both converge" true (pruned.converged && noisy.converged);
  (* Different search schedules may land on different FR fixpoints, but both
     sit in the same [Delta*, Delta*+1] band. *)
  let optimum = match Exact.solve g with Some e -> e.optimum | None -> Alcotest.fail "exact" in
  match (pruned.degree, noisy.degree) with
  | Some a, Some b ->
      check "pruned within band" true (a <= optimum + 1);
      check "no-prune within band" true (b <= optimum + 1)
  | _ -> Alcotest.fail "missing results"

let test_message_size_bound () =
  (* Lemma 5: messages carry at most O(n log n) bits.  Generous constant. *)
  let n = 16 in
  let g = Gen.erdos_renyi_connected (Prng.create 15) ~n ~p:0.3 in
  let r = converge ~seed:3 g in
  let logn = Mdst_util.Sizing.bits_for_card n in
  check "message size O(n log n)" true (r.max_msg_bits <= 8 * n * logn)

let test_state_size_bound () =
  let n = 16 in
  let g = Gen.erdos_renyi_connected (Prng.create 16) ~n ~p:0.3 in
  let r = converge ~seed:3 g in
  let delta = Graph.max_degree g in
  let logn = Mdst_util.Sizing.bits_for_card n in
  check "state size O(delta log n)" true (r.max_state_bits <= 16 * (delta + 1) * logn)

let test_trajectory_monotone_at_fixpoint () =
  (* Once converged, re-running the stop predicate keeps holding (closure of
     the legitimacy predicate, Definition 1(i)). *)
  let g = Gen.grid ~rows:3 ~cols:3 in
  let engine = Run.make_engine ~seed:31 ~init:`Clean g in
  let stop = Run.make_stop ~fixpoint () in
  let o1 = Run.Sim.run engine ~max_rounds:30_000 ~check_every:2 ~stop () in
  check "converged" true o1.converged;
  let deg1 = Mdst_core.Checker.tree_degree_now g (Run.Sim.states engine) in
  (* Keep executing: the tree must not change any more. *)
  for _ = 1 to 20_000 do
    ignore (Run.Sim.step engine)
  done;
  let deg2 = Mdst_core.Checker.tree_degree_now g (Run.Sim.states engine) in
  Alcotest.(check (option int)) "closure: tree stable after convergence" deg1 deg2;
  check "still legitimate" true
    (Mdst_core.Checker.legitimate g (Run.Sim.states engine))

let prop_transplant_identity =
  QCheck.Test.make ~name:"transplant onto the same graph is the identity" ~count:30
    QCheck.(pair small_int (int_range 5 14))
    (fun (seed, n) ->
      let g = Gen.erdos_renyi_connected (Prng.create seed) ~n ~p:0.3 in
      let engine = Run.make_engine ~seed g in
      for _ = 1 to 2000 do
        ignore (Run.Sim.step engine)
      done;
      let states = Run.Sim.states engine in
      let moved = Mdst_core.Transplant.states ~old_graph:g ~new_graph:g states in
      Array.for_all2 (fun (a : Mdst_core.State.t) b -> a = b) states moved)

let prop_diverse_families_converge =
  (* One property spanning several generator families: corrupted start,
     convergence within the band on whatever family the seed picks. *)
  QCheck.Test.make ~name:"protocol converges within band across graph families" ~count:10
    QCheck.(pair (int_range 1 10_000) (int_range 0 3))
    (fun (seed, fam) ->
      let rng = Prng.create seed in
      let g =
        match fam with
        | 0 -> Gen.random_regular rng ~n:10 ~d:3
        | 1 -> Gen.random_geometric_connected rng ~n:10 ~radius:0.5
        | 2 -> Gen.barabasi_albert rng ~n:10 ~k:2
        | _ -> Gen.random_connected rng ~n:10 ~m:16
      in
      let r = converge ~seed g in
      match (r.degree, Exact.solve g) with
      | Some d, Some e -> r.converged && d <= e.optimum + 1
      | _ -> false)

let test_run_respects_max_rounds () =
  let g = Gen.erdos_renyi_connected (Prng.create 3) ~n:16 ~p:0.3 in
  let r = Run.converge ~seed:1 ~init:`Random ~max_rounds:20 ~fixpoint g in
  check "not converged in 20 rounds" false r.converged;
  check "rounds bounded" true (r.rounds <= 40)

let test_messages_sum_to_total () =
  let g = Gen.ring 8 in
  let r = converge ~seed:2 g in
  Alcotest.(check int) "per-label counts sum to total" r.total_messages
    (List.fold_left (fun acc (_, c) -> acc + c) 0 r.messages)

let test_seed_determinism_end_to_end () =
  let g = Gen.erdos_renyi_connected (Prng.create 44) ~n:12 ~p:0.3 in
  let r1 = converge ~seed:9 g and r2 = converge ~seed:9 g in
  Alcotest.(check int) "same rounds" r1.rounds r2.rounds;
  Alcotest.(check int) "same messages" r1.total_messages r2.total_messages;
  check "same tree" true
    (match (r1.tree, r2.tree) with
    | Some a, Some b -> Tree.equal_edges a b
    | _ -> false)

let test_schedule_fuzz () =
  (* One small graph, many random schedules (seed x latency model): the
     guarantee must hold under every interleaving we can sample. *)
  let g = Gen.erdos_renyi_connected (Prng.create 77) ~n:9 ~p:0.4 in
  let optimum =
    match Exact.solve g with Some e -> e.optimum | None -> Alcotest.fail "exact"
  in
  List.iter
    (fun model ->
      List.iter
        (fun seed ->
          let latency = Latency.by_name model (seed * 3) in
          let r = converge ~seed ~latency g in
          match r.degree with
          | Some d ->
              check
                (Printf.sprintf "%s seed %d within band" model seed)
                true
                (r.converged && d <= optimum + 1)
          | None -> Alcotest.fail (Printf.sprintf "%s seed %d: no tree" model seed))
        (List.init 12 (fun i -> 1000 + (13 * i))))
    [ "uniform"; "exponential"; "slow-links" ]

(* ---------------- liveness regressions ----------------

   Two reproducers on which the protocol never reached the FR fixpoint
   before the local distance repair and the idblock fallback.  Mode A
   (asynchronous): a Deblock for one node was re-launched forever, every
   Search carried its idblock, and every cycle not containing that node
   was dropped.  Mode B (synchronous daemon): two crossed swaps cut nodes
   off with an incoherent distance, they reset to root, R1 rebuilt the
   same tree and the race repeated with period 16.  Since the synchronous
   daemon became a policy of the one engine its random starts draw
   different channel contents, and that instance (ER n=12 graph 3, seed
   10) converges even without the fix; graph 1 with seed 0 is pinned
   instead, the first instance that does not reach the fixpoint without
   the fix (a quiet stall at a legitimate, improvable tree; no periodic
   race showed up among graphs 0..29 x seeds 0..29). *)

let mode_a_grid () =
  let root = Prng.create 12345 in
  for _ = 1 to 324 do
    ignore (Prng.split root)
  done;
  Gen.with_random_ids (Prng.split root) (Gen.grid ~rows:5 ~cols:5)

let test_mode_a_async_stall () =
  let r = Run.converge ~seed:324 ~max_rounds:8000 ~fixpoint (mode_a_grid ()) in
  check "mode A converges to the FR fixpoint" true r.converged

let sync_er12 g = Gen.erdos_renyi_connected (Prng.create g) ~n:12 ~p:0.3

let sync_converges ~graph ~seed =
  (Mdst_core.Sync_run.converge ~seed ~init:`Random ~max_rounds:5000 ~fixpoint (sync_er12 graph))
    .converged

let test_mode_b_sync_livelock () =
  check "mode B converges under the synchronous daemon" true (sync_converges ~graph:1 ~seed:0)

(* ER n=12 graphs 0..9 x daemon seeds 0..9 from adversarial starts.  It
   also pins graph 3 with seeds 1 and 8, which a first version of the
   change-driven Search window (one that ignored swap locks and Deblocks
   being set or cleared) never took past a legitimate but improvable tree;
   test_core "search-gate" checks those triggers directly. *)
let test_sync_sweep () =
  let failed = ref [] in
  for graph = 0 to 9 do
    for seed = 0 to 9 do
      if not (sync_converges ~graph ~seed) then failed := (graph, seed) :: !failed
    done
  done;
  Alcotest.(check (list (pair int int))) "(graph, seed) pairs without convergence" [] (List.rev !failed)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "integration"
    [
      ( "guarantee",
        [
          q prop_protocol_within_one_of_optimum;
          q prop_protocol_matches_fr_band;
          Alcotest.test_case "structured families" `Slow test_structured_families_exact;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "all latency models" `Slow test_latency_models_all_converge;
          Alcotest.test_case "schedule fuzz (36 interleavings)" `Slow test_schedule_fuzz;
          Alcotest.test_case "recovery at all fractions" `Slow test_recovery_from_every_fraction;
          Alcotest.test_case "closure after convergence" `Slow test_trajectory_monotone_at_fixpoint;
          Alcotest.test_case "deterministic end-to-end" `Quick test_seed_determinism_end_to_end;
          Alcotest.test_case "max_rounds respected" `Quick test_run_respects_max_rounds;
          Alcotest.test_case "message accounting consistent" `Quick test_messages_sum_to_total;
          q prop_transplant_identity;
          q prop_diverse_families_converge;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "mode A: async Deblock stall" `Quick test_mode_a_async_stall;
          Alcotest.test_case "mode B: sync swap-race livelock" `Quick test_mode_b_sync_livelock;
          Alcotest.test_case "sync sweep (100 instances)" `Quick test_sync_sweep;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "deblock differential" `Quick test_deblock_ablation_differential;
          Alcotest.test_case "prune equivalence" `Quick test_prune_ablation_equivalent_quality;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "message size bound" `Quick test_message_size_bound;
          Alcotest.test_case "state size bound" `Quick test_state_size_bound;
        ] );
    ]
