(* mdst_sim — command-line front end.

   Subcommands:
     run          simulate the self-stabilizing MDST protocol on one graph
     solve        compare FR / exact / naive baselines on one graph
     experiments  regenerate the tables and figures of EXPERIMENTS.md
     bench        engine macro-benchmarks; writes BENCH_engine.json
     pardet       parallel-determinism check (trace identity + fingerprint
                  equivalence across shard counts)
     families     list the available graph families and named workloads *)

open Cmdliner
module Graph = Mdst_graph.Graph
module Tree = Mdst_graph.Tree
module Gen = Mdst_graph.Gen
module Run = Mdst_core.Run

let graph_of ~family ~n ~seed ~shuffle_ids ~input =
  (* Generation and relabelling get independent child streams, so
     --shuffle-ids permutes the identifiers of the *same* topology the
     unshuffled run uses, instead of changing the graph under the
     comparison. *)
  let rng = Mdst_util.Prng.create (seed lxor 0x5eed) in
  let gen_rng = Mdst_util.Prng.split rng in
  let id_rng = Mdst_util.Prng.split rng in
  let g =
    match input with
    | Some path -> Mdst_graph.Io.load path
    | None -> Gen.by_name family gen_rng ~n
  in
  if shuffle_ids then Gen.with_random_ids id_rng g else g

(* ---- common options ---- *)

let family_arg =
  let doc =
    "Graph family: " ^ String.concat ", " Gen.family_names ^ "."
  in
  Arg.(value & opt string "er" & info [ "f"; "family" ] ~docv:"FAMILY" ~doc)

let n_arg = Arg.(value & opt int 16 & info [ "n" ] ~docv:"N" ~doc:"Number of nodes (approximate for some families).")

let seed_arg = Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Deterministic seed.")

let shuffle_arg =
  Arg.(value & flag & info [ "shuffle-ids" ] ~doc:"Assign a random permutation of identifiers (the protocol must not depend on the transport numbering).")

let input_arg =
  Arg.(value & opt (some file) None & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Load the topology from an edge-list file instead of generating one (see Mdst_graph.Io for the format).")

let save_graph_arg =
  Arg.(value & opt (some string) None & info [ "save-graph" ] ~docv:"FILE" ~doc:"Write the (generated) topology to $(docv) in edge-list form.")

(* ---- run ---- *)

let init_conv = Arg.enum [ ("clean", `Clean); ("random", `Random) ]

let init_arg =
  Arg.(value & opt init_conv `Random & info [ "init" ] ~docv:"INIT" ~doc:"Initial configuration: $(b,clean) or $(b,random) (adversarial).")

let latency_arg =
  let doc = "Latency model: " ^ String.concat ", " Mdst_sim.Latency.names ^ "." in
  Arg.(value & opt string "uniform" & info [ "latency" ] ~docv:"MODEL" ~doc)

let max_rounds_arg =
  Arg.(value & opt int Run.default_max_rounds & info [ "max-rounds" ] ~doc:"Abort after this many asynchronous rounds.")

let dot_arg =
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc:"Write the final tree as Graphviz DOT to $(docv).")

let oracle_arg =
  Arg.(value & flag & info [ "no-oracle" ] ~doc:"Do not require the Fürer–Raghavachari fixpoint in the stop condition (quiescence only).")

let trace_arg =
  Arg.(value & opt int 0 & info [ "trace" ] ~docv:"N" ~doc:"Print the first $(docv) protocol events (ticks excluded, gossip excluded).")

let faults_arg =
  Arg.(value & opt (some string) None
       & info [ "faults" ] ~docv:"PLAN"
           ~doc:"Inject a deterministic fault plan while the protocol runs.  $(docv) is the textual plan form, e.g. $(b,seed=3|drop:0-200:0>1:0.5|crash:150:4:random|cut:100:0-1); see docs/FAULTS.md.  Convergence is only declared after the plan's last fault round.")

let domains_arg =
  Arg.(value & opt int 1
       & info [ "domains" ] ~docv:"K"
           ~doc:"Split the engine into $(docv) shards, each run on its own domain.  The \
                 execution does not depend on $(docv): events run at the same virtual times \
                 in the same order (verify with $(b,mdst_sim pardet)); with one shard the \
                 stop is checked every 2 rounds, with more at window barriers.  Scheduled \
                 $(b,--faults) events (crash, cut, link) need one shard.")

let run_cmd =
  let action family n seed shuffle input save_graph init latency max_rounds dot no_oracle trace
      faults domains =
    let graph = graph_of ~family ~n ~seed ~shuffle_ids:shuffle ~input in
    (match save_graph with
    | Some path ->
        Mdst_graph.Io.save path graph;
        Printf.printf "wrote topology to %s\n" path
    | None -> ());
    Printf.printf "graph: %s  n=%d m=%d deg(G)=%d\n%!" family (Graph.n graph) (Graph.m graph)
      (Graph.max_degree graph);
    let fixpoint =
      if no_oracle then fun _ -> true else fun t -> not (Mdst_baseline.Fr.improvable t)
    in
    let latency = Mdst_sim.Latency.by_name latency seed in
    let plan = Option.map Mdst_sim.Fault.of_string faults in
    (* Tracing and fault injection both need to drive the engine manually;
       the plain path stays on the one-call harness. *)
    let r, final_graph =
      match (plan, trace) with
      | None, t when t <= 0 ->
          (Run.converge ~latency ~seed ~init ~max_rounds ~fixpoint ~domains graph, graph)
      | _ ->
          let engine = Run.make_engine ~latency ~seed ~init ~domains graph in
          Option.iter
            (fun p -> Run.Sim.install_faults engine ~remap:Mdst_core.Transplant.states p)
            plan;
          if trace > 0 then begin
            let remaining = ref trace in
            Run.Sim.observe engine (function
              | Mdst_sim.Pengine.Obs_deliver { src; dst; label; round; time }
                when label <> "info" && !remaining > 0 ->
                  decr remaining;
                  Printf.printf "  [round %5d | t=%8.1f] %-11s %d -> %d\n" round time label src
                    dst
              | Mdst_sim.Pengine.Obs_fault { kind; detail; round; time } ->
                  Printf.printf "  [round %5d | t=%8.1f] fault:%-5s %s\n" round time kind detail
              | Mdst_sim.Pengine.Obs_deliver _ | Mdst_sim.Pengine.Obs_tick _ -> ())
          end;
          (* Convergence only counts once the adversary is done: strictly
             past the last fault round, with no scheduled event waiting. *)
          let last_fault =
            match plan with Some p -> Mdst_sim.Fault.last_fault_round p | None -> -1
          in
          let base_stop = Run.make_stop ~fixpoint () in
          let stop e =
            let held = base_stop e in
            held && Run.Sim.rounds e > last_fault && not (Run.Sim.faults_pending e)
          in
          let outcome = Run.Sim.run engine ~max_rounds ~check_every:2 ~stop () in
          if trace > 0 then Run.Sim.unobserve engine;
          (match plan with
          | Some _ ->
              Format.printf "faults applied: %a@." Mdst_sim.Fault.pp_stats
                (Run.Sim.fault_stats engine)
          | None -> ());
          (Run.snapshot engine ~converged:outcome.converged, Run.Sim.graph engine)
    in
    Printf.printf "converged: %b\nrounds: %d\nvirtual time: %.1f\nmessages: %d (%d bits)\n"
      r.converged r.rounds r.time r.total_messages r.total_bits;
    List.iter (fun (l, c) -> Printf.printf "  %-12s %d\n" l c) r.messages;
    (match r.degree with
    | Some d ->
        Printf.printf "final tree degree: %d\n" d;
        (* Against the final topology: cut/link faults may have changed it. *)
        let fr = Tree.max_degree (Mdst_baseline.Fr.approx_mdst final_graph) in
        let lo = max (Mdst_baseline.Exact.lower_bound final_graph) (fr - 1) in
        if lo = fr then Printf.printf "FR reference degree: %d (Delta* = %d)\n" fr fr
        else Printf.printf "FR reference degree: %d (Delta* is %d or %d)\n" fr lo fr
    | None -> print_endline "no legitimate tree at stop");
    match (dot, r.tree) with
    | Some file, Some tree ->
        let oc = open_out file in
        output_string oc (Mdst_graph.Dot.tree_to_string tree);
        close_out oc;
        Printf.printf "wrote %s\n" file
    | _ -> ()
  in
  let term =
    Term.(
      const action $ family_arg $ n_arg $ seed_arg $ shuffle_arg $ input_arg $ save_graph_arg
      $ init_arg $ latency_arg $ max_rounds_arg $ dot_arg $ oracle_arg $ trace_arg $ faults_arg
      $ domains_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Simulate the self-stabilizing MDST protocol on one graph.") term

(* ---- solve ---- *)

let solve_cmd =
  let action family n seed shuffle input =
    let graph = graph_of ~family ~n ~seed ~shuffle_ids:shuffle ~input in
    Printf.printf "graph: %s  n=%d m=%d deg(G)=%d\n%!" family (Graph.n graph) (Graph.m graph)
      (Graph.max_degree graph);
    let rng = Mdst_util.Prng.create seed in
    List.iter
      (fun spec ->
        (* Independent stream per baseline: listing more baselines must
           not change the draws of the ones before. *)
        Printf.printf "%-12s degree %d\n" (Mdst_baseline.Naive.name spec)
          (Mdst_baseline.Naive.degree (Mdst_util.Prng.split rng) spec graph))
      Mdst_baseline.Naive.all;
    let fr = Mdst_baseline.Fr.approx_mdst graph in
    Printf.printf "%-12s degree %d\n" "FR" (Tree.max_degree fr);
    if Graph.n graph <= 22 then
      match Mdst_baseline.Exact.solve graph with
      | Some r -> Printf.printf "%-12s degree %d (%d expansions)\n" "exact" r.optimum r.expansions
      | None -> print_endline "exact        budget exhausted"
    else print_endline "exact        skipped (n > 22)"
  in
  let term = Term.(const action $ family_arg $ n_arg $ seed_arg $ shuffle_arg $ input_arg) in
  Cmd.v (Cmd.info "solve" ~doc:"Compare baseline spanning-tree algorithms on one graph.") term

(* ---- compare ---- *)

let compare_cmd =
  let action family n seed shuffle input =
    let graph = graph_of ~family ~n ~seed ~shuffle_ids:shuffle ~input in
    Printf.printf "graph: %s  n=%d m=%d deg(G)=%d\n%!" family (Graph.n graph) (Graph.m graph)
      (Graph.max_degree graph);
    let fr = Tree.max_degree (Mdst_baseline.Fr.approx_mdst graph) in
    Printf.printf "%-28s degree %d (sequential reference)\n%!" "Fürer–Raghavachari" fr;
    let fixpoint t = not (Mdst_baseline.Fr.improvable t) in
    let proto = Run.converge ~seed ~init:`Random ~fixpoint graph in
    Printf.printf "%-28s degree %s in %d rounds, %d msgs (from corruption)\n%!"
      "paper protocol"
      (match proto.degree with Some d -> string_of_int d | None -> "-")
      proto.rounds proto.total_messages;
    let bb = Mdst_baseline.Bb.converge ~seed graph in
    Printf.printf "%-28s degree %s in %d rounds, %d msgs, %d phases (clean start)\n%!"
      "serialized BB-style [3]"
      (match bb.degree with Some d -> string_of_int d | None -> "-")
      bb.rounds bb.total_messages bb.phases_run;
    Printf.printf "peak state bits: protocol %d vs BB %d\n" proto.max_state_bits
      bb.max_state_bits
  in
  let term = Term.(const action $ family_arg $ n_arg $ seed_arg $ shuffle_arg $ input_arg) in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Head-to-head: the paper's protocol vs the serialized Blin–Butelle-style comparator.")
    term

(* ---- props ---- *)

let props_cmd =
  let action family n seed input =
    let graph = graph_of ~family ~n ~seed ~shuffle_ids:false ~input in
    List.iter (fun (k, v) -> Printf.printf "%-22s %s\n" k v) (Mdst_graph.Props.summary graph);
    let h = Mdst_graph.Props.degree_histogram graph in
    print_string "degree histogram       ";
    Array.iteri (fun d c -> if c > 0 then Printf.printf "%d:%d " d c) h;
    print_newline ()
  in
  let term = Term.(const action $ family_arg $ n_arg $ seed_arg $ input_arg) in
  Cmd.v (Cmd.info "props" ~doc:"Print structural statistics of one graph.") term

(* ---- experiments ---- *)

let experiments_cmd =
  let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Small sizes and fewer seeds.") in
  let only_arg =
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"ID" ~doc:"Run a single experiment (E1..E20).")
  in
  let csv_arg =
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc:"Also write every table as CSV under $(docv).")
  in
  let action quick only csv =
    (match only with
    | Some id ->
        let e = Mdst_analysis.Registry.find id in
        Printf.printf "%s — %s\nclaim: %s\n\n" e.id e.title e.claim;
        List.iter Mdst_analysis.Table.print (e.run ~quick ())
    | None -> Mdst_analysis.Registry.run_all ~quick ());
    match csv with
    | Some dir ->
        let files = Mdst_analysis.Registry.save_csvs ~dir ~quick () in
        Printf.printf "wrote %d CSV files under %s\n" (List.length files) dir
    | None -> ()
  in
  let term = Term.(const action $ quick_arg $ only_arg $ csv_arg) in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate every table and figure of EXPERIMENTS.md.")
    term

(* ---- bench ---- *)

let bench_cmd =
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"Small sizes and a reduced event budget (CI smoke).")
  in
  let proto_arg =
    Arg.(value & flag
         & info [ "proto" ]
             ~doc:"Run the protocol macro-benchmarks (experiment E20: convergence time, \
                   message volume, allocation, with and without Info suppression) instead \
                   of the engine benchmarks.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Where to write the JSON benchmark points (default: BENCH_engine.json, \
                   or BENCH_proto.json with $(b,--proto)).")
  in
  let baseline_arg =
    Arg.(value & opt (some file) None
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Regression guard (engine benchmarks only): compare the fresh points \
                   against this committed BENCH_engine.json and exit non-zero if \
                   events/sec regressed beyond the tolerance on any matching point.")
  in
  let tolerance_arg =
    Arg.(value & opt float 0.3
         & info [ "tolerance" ] ~docv:"FRAC"
             ~doc:"Allowed fractional events/sec drop before the regression guard fails \
                   (default 0.3; benchmarks on shared CI runners are noisy).")
  in
  let action quick proto out baseline tolerance =
    if proto then begin
      let module B = Mdst_analysis.Bench_proto in
      let out = Option.value out ~default:"BENCH_proto.json" in
      let points =
        B.points ~quick ~progress:(fun p -> Format.printf "  %a@." B.pp_point p) ()
      in
      Mdst_analysis.Table.print (B.table points);
      B.write_json ~path:out ~quick points;
      Printf.printf "wrote %s (%d points)\n" out (List.length points)
    end
    else begin
      let module B = Mdst_analysis.Bench_engine in
      let out = Option.value out ~default:"BENCH_engine.json" in
      (* Read the baseline before writing --out: guarding against the file
         being overwritten when baseline and out name the same path. *)
      let base = Option.map B.load_json baseline in
      let points = B.points ~quick () in
      Mdst_analysis.Table.print (B.table points);
      B.write_json ~path:out ~quick points;
      Printf.printf "wrote %s (%d points)\n" out (List.length points);
      match base with
      | None -> ()
      | Some baseline_pts ->
          (match B.regressions ~tolerance ~baseline:baseline_pts points with
          | [] ->
              Printf.printf "regression guard: OK (%d baseline points, tolerance %.0f%%)\n"
                (List.length baseline_pts) (100.0 *. tolerance)
          | lines ->
              print_endline "regression guard: FAILED";
              List.iter (fun l -> print_endline ("  " ^ l)) lines;
              exit 1)
    end
  in
  let term = Term.(const action $ quick_arg $ proto_arg $ out_arg $ baseline_arg $ tolerance_arg) in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Macro-benchmarks: the engine trajectory (E19, default; BENCH_engine.json, \
             optional --baseline regression guard) or the protocol trajectory (E20, \
             --proto; BENCH_proto.json).")
    term

(* ---- pardet ---- *)

let pardet_cmd =
  let domains_list_arg =
    Arg.(value & opt (list int) [ 1; 2; 4 ]
         & info [ "domains" ] ~docv:"K,K,..."
             ~doc:"Shard counts to cross-validate (comma-separated).")
  in
  let until_arg =
    Arg.(value & opt float 40.0
         & info [ "until" ] ~docv:"T"
             ~doc:"Virtual-time horizon of the recorded runs.")
  in
  let max_rounds_arg =
    Arg.(value & opt int Run.default_max_rounds
         & info [ "max-rounds" ] ~doc:"Round budget for the fingerprint convergence runs.")
  in
  (* Parcheck's init is the closed [`Clean | `Random]; the shared init_arg
     unifies with Run.init (which also admits `Tree). *)
  let pinit_arg =
    Arg.(value
         & opt (enum [ ("clean", `Clean); ("random", `Random) ]) `Random
         & info [ "init" ] ~docv:"INIT"
             ~doc:"Initial configuration: $(b,clean) or $(b,random) (adversarial).")
  in
  let action family n seed input init domains until max_rounds =
    let graph = graph_of ~family ~n ~seed ~shuffle_ids:false ~input in
    Printf.printf "graph: %s  n=%d m=%d  seed=%d  init=%s\n%!" family (Graph.n graph)
      (Graph.m graph) seed
      (match init with `Clean -> "clean" | `Random -> "random");
    let module P = Mdst_check.Parcheck in
    let failures = ref 0 in
    (* Trace identity: the observer timeline and final states of a
       window-driven run must not depend on the shard count. *)
    (let r = P.Default.run_case { P.graph; seed; init; domains; until } in
     match r.P.failure with
     | None ->
         Printf.printf "  trace: identical at domains=%s (%d events)\n%!"
           (String.concat "," (List.map string_of_int domains))
           r.P.events
     | Some why ->
         incr failures;
         Printf.printf "  trace: FAIL — %s\n%!" why);
    let eq = P.Default.fingerprint_equivalence ~max_rounds ~seed ~init ~domains graph in
    List.iter
      (fun (d, converged, fp) ->
        Printf.printf "  domains=%d  converged=%b  fingerprint=%d\n" d converged fp)
      eq.P.per_domain;
    if eq.P.agree then print_endline "fingerprints: MATCH"
    else begin
      incr failures;
      print_endline "fingerprints: DIVERGED"
    end;
    if !failures > 0 then exit 1
  in
  let term =
    Term.(
      const action $ family_arg $ n_arg $ seed_arg $ input_arg $ pinit_arg $ domains_list_arg
      $ until_arg $ max_rounds_arg)
  in
  Cmd.v
    (Cmd.info "pardet"
       ~doc:"Parallel-determinism check: record a run to the horizon under each shard \
             count and require identical timelines and final states, then converge the same \
             instance under each shard count and require identical quiescence fingerprints.  \
             Non-zero exit on any divergence.")
    term

(* ---- pbt ---- *)

let pbt_cmd =
  let tests_arg =
    Arg.(value & opt int 60 & info [ "tests" ] ~docv:"N" ~doc:"Generated cases per property.")
  in
  let pbt_seed_arg =
    Arg.(value & opt int 1729 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Seed for the whole generate-fail-shrink trajectory; the same seed replays it exactly.")
  in
  let suite_arg =
    let doc =
      "Property suite: "
      ^ String.concat ", " (Mdst_check.Suites.suite_names @ [ "convergence" ])
      ^ ".  $(b,all) runs everything including convergence."
    in
    Arg.(value & opt string "all" & info [ "suite" ] ~docv:"SUITE" ~doc)
  in
  let max_nodes_arg =
    Arg.(value & opt int 10 & info [ "max-nodes" ] ~docv:"N" ~doc:"Largest generated topology for the convergence property.")
  in
  let max_events_arg =
    Arg.(value & opt int 5 & info [ "max-events" ] ~docv:"N" ~doc:"Most fault events per generated plan.")
  in
  let broken_arg =
    Arg.(value & flag & info [ "broken" ] ~doc:"Test the deliberately broken grant-dropping protocol variant instead of the real one.  The run succeeds when the property is $(i,falsified) and prints the shrunk reproducer — a self-check that the harness catches real bugs.")
  in
  let replay_arg =
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"CASE" ~doc:"Skip generation and replay one printed reproducer (the $(b,n=..;edges=..;seed=..;plan=..) line a failure reports).")
  in
  let action tests seed suite max_nodes max_events broken replay =
    let module C = Mdst_check.Convergence in
    let module P = Mdst_check.Property in
    let module S = Mdst_check.Suites in
    let run_case, variant =
      if broken then ((fun c -> C.Broken.run_case c), "broken grant-dropping variant")
      else ((fun c -> C.Default.run_case c), "paper protocol")
    in
    match replay with
    | Some line ->
        let case = C.case_of_string line in
        Printf.printf "replaying (%s): %s\n%!" variant (C.case_to_string case);
        let r = run_case case in
        Printf.printf
          "converged: %b\nrounds: %d (last fault at round %d)\ntree degree: %s (FR reference %d)\nclosure: %b\n"
          r.C.converged r.C.rounds r.C.last_fault_round
          (match r.C.degree with Some d -> string_of_int d | None -> "-")
          r.C.fr_degree r.C.closure_ok;
        Format.printf "faults applied: %a@." Mdst_sim.Fault.pp_stats r.C.stats;
        (match C.verdict r with
        | Ok () -> print_endline "property: holds on this case"
        | Error reason ->
            Printf.printf "property: falsified — %s\n" reason;
            exit 1)
    | None ->
        let failures = ref 0 in
        let run_packed packed =
          match S.check ~tests ~seed packed with
          | P.Passed { tests } -> Printf.printf "PASS %-36s %d tests\n%!" (S.name packed) tests
          | P.Falsified c ->
              incr failures;
              print_endline (P.render ~name:(S.name packed) c)
        in
        (match suite with
        | "convergence" | "all" -> ()
        | s -> ignore (S.by_name s));
        (match suite with
        | "convergence" -> ()
        | s -> List.iter run_packed (S.by_name (if s = "all" then "all" else s)));
        (match suite with
        | "convergence" | "all" ->
            let property =
              (if broken then C.Broken.property else C.Default.property)
                ~max_n:max_nodes ~max_events ()
            in
            let t0 = Sys.time () in
            (match P.check ~tests ~seed property with
            | P.Passed { tests } ->
                Printf.printf "%s %-36s %d tests (%.1fs)\n%!"
                  (if broken then "FAIL" else "PASS")
                  property.P.name tests (Sys.time () -. t0);
                if broken then begin
                  incr failures;
                  print_endline
                    "expected the broken variant to be falsified, but every test passed"
                end
            | P.Falsified c ->
                if broken then begin
                  Printf.printf
                    "falsified as expected (%d tests, %d shrink steps).  Shrunk reproducer:\n  %s\nreason: %s\nreplay with: mdst_sim pbt --broken --replay '%s'\n%!"
                    c.P.tests_run c.P.shrink_steps c.P.printed c.P.reason c.P.printed
                end
                else begin
                  incr failures;
                  print_endline (P.render ~name:property.P.name c)
                end)
        | _ -> ());
        if !failures > 0 then exit 1
  in
  let term =
    Term.(
      const action $ tests_arg $ pbt_seed_arg $ suite_arg $ max_nodes_arg $ max_events_arg
      $ broken_arg $ replay_arg)
  in
  Cmd.v
    (Cmd.info "pbt"
       ~doc:"Property-based testing: generate random (topology, fault plan, seed) cases, check convergence-under-adversity, shrink failures to minimal reproducers.")
    term

(* ---- explore ---- *)

let explore_cmd =
  let n_arg =
    Arg.(value & opt int 4
         & info [ "n" ] ~docv:"N"
             ~doc:"Number of nodes.  Exploration is exponential in the schedule; keep $(docv) <= 5.")
  in
  let depth_arg =
    Arg.(value & opt int 8 & info [ "max-depth" ] ~docv:"D" ~doc:"DFS depth cap (events per explored path).")
  in
  let configs_arg =
    Arg.(value & opt int 20_000 & info [ "max-configs" ] ~docv:"C" ~doc:"Cap on distinct configurations expanded per initial configuration.")
  in
  let random_inits_arg =
    Arg.(value & opt int 3 & info [ "random-inits" ] ~docv:"K" ~doc:"How many adversarial (random-state) initial configurations to explore.")
  in
  let walks_arg =
    Arg.(value & opt int 2 & info [ "walks" ] ~docv:"K" ~doc:"Random lockstep walks (engine schedule-control hook vs model) to run after the DFS.")
  in
  let walk_steps_arg =
    Arg.(value & opt int 400 & info [ "walk-steps" ] ~docv:"N" ~doc:"Events per random lockstep walk.")
  in
  let suppressed_arg =
    Arg.(value & flag & info [ "suppressed" ] ~doc:"Explore the Info-suppression protocol variant instead of the default one.")
  in
  let quick_arg =
    Arg.(value & flag & info [ "quick" ] ~doc:"CI smoke preset: clamps depth, config, init and walk budgets.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"On violation, also write the reproducers to $(docv) (CI artifact).")
  in
  let action family n seed input suppressed quick max_depth max_configs random_inits walks
      walk_steps out =
    let graph = graph_of ~family ~n ~seed ~shuffle_ids:false ~input in
    let max_depth, max_configs, random_inits, walks, walk_steps =
      if quick then
        (min max_depth 6, min max_configs 3_000, min random_inits 2, min walks 1, min walk_steps 150)
      else (max_depth, max_configs, random_inits, walks, walk_steps)
    in
    let module X =
      (val (if suppressed then (module Mdst_check.Explore.Suppressed)
            else (module Mdst_check.Explore.Default))
          : Mdst_check.Explore.S)
    in
    Printf.printf "graph: %s  n=%d m=%d  variant: %s\n%!" family (Graph.n graph) (Graph.m graph)
      (if suppressed then "suppressed" else "default");
    let violations = ref [] in
    let run_dfs label init =
      let t0 = Sys.time () in
      let stats, vio = X.dfs ~max_depth ~max_configs ~init graph in
      Printf.printf "  dfs  %-16s %6d configs, %7d transitions, depth<=%d%s (%.1fs)%s\n%!" label
        stats.Mdst_check.Explore.configs stats.transitions stats.max_depth_reached
        (if stats.truncated then ", truncated" else "")
        (Sys.time () -. t0)
        (match vio with None -> "" | Some _ -> "  VIOLATION");
      match vio with
      | None -> ()
      | Some v ->
          violations :=
            (label, Format.asprintf "%a" Mdst_check.Explore.pp_violation v) :: !violations
    in
    run_dfs "clean" `Clean;
    run_dfs "legitimate" `Legitimate;
    for i = 0 to random_inits - 1 do
      run_dfs (Printf.sprintf "random:%d" (seed + i)) (`Random (seed + i))
    done;
    for i = 0 to walks - 1 do
      let wseed = seed + 100 + i in
      match X.walk ~steps:walk_steps ~seed:wseed ~init:`Random graph with
      | Ok steps ->
          Printf.printf "  walk random seed=%d: %d lockstep events conformant\n%!" wseed steps
      | Error e -> violations := (Printf.sprintf "walk seed=%d" wseed, e) :: !violations
    done;
    match List.rev !violations with
    | [] -> print_endline "explore: no conformance or closure violations"
    | vs ->
        List.iter (fun (l, v) -> Printf.printf "VIOLATION (%s): %s\n" l v) vs;
        (match out with
        | Some path ->
            let oc = open_out path in
            Printf.fprintf oc "graph: %s\n" (Mdst_graph.Io.to_string graph);
            List.iter (fun (l, v) -> Printf.fprintf oc "%s: %s\n" l v) vs;
            close_out oc;
            Printf.printf "wrote %s\n" path
        | None -> ());
        exit 1
  in
  let term =
    Term.(
      const action $ family_arg $ n_arg $ seed_arg $ input_arg $ suppressed_arg $ quick_arg
      $ depth_arg $ configs_arg $ random_inits_arg $ walks_arg $ walk_steps_arg $ out_arg)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Bounded schedule exploration: enumerate delivery interleavings of a small instance, checking the real protocol against the reference model and closure of the legitimacy predicate on every path.")
    term

(* ---- fuzz ---- *)

let fuzz_cmd =
  let quick_arg =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"CI smoke preset: ~30s budget, small graphs.  Exit status is the \
                   verdict: non-zero means the fuzzer found a trophy.")
  in
  let budget_arg =
    Arg.(value & opt float 60.0
         & info [ "budget" ] ~docv:"SEC" ~doc:"Wall-clock budget for the campaign.")
  in
  let execs_arg =
    Arg.(value & opt (some int) None
         & info [ "execs" ] ~docv:"N" ~doc:"Stop after $(docv) executions (default: budget only).")
  in
  let fuzz_seed_arg =
    Arg.(value & opt int 1
         & info [ "s"; "seed" ] ~docv:"SEED"
             ~doc:"Campaign seed; the same seed and caps replay the same campaign.")
  in
  let max_n_arg =
    Arg.(value & opt (some int) None
         & info [ "max-n" ] ~docv:"N" ~doc:"Largest generated topology (default 96, or 10 with $(b,--quick)).")
  in
  let corpus_arg =
    Arg.(value & opt (some string) None
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Persist the corpus: load $(docv) before the swarm sweep, save every \
                   retained entry and shrunk trophy into it.")
  in
  let replay_arg =
    Arg.(value & opt (some string) None
         & info [ "replay" ] ~docv:"CASE"
             ~doc:"Skip fuzzing and strictly replay one reproducer line (as emitted for a \
                   trophy or saved in a corpus).  Exit status 1 when the violation \
                   reproduces, 0 when the execution is clean.")
  in
  let random_arg =
    Arg.(value & flag
         & info [ "random" ]
             ~doc:"Run the uniform random-walk baseline instead of the coverage-guided \
                   campaign (the control arm of BENCH_fuzz.json).")
  in
  let bench_arg =
    Arg.(value & flag
         & info [ "bench" ]
             ~doc:"Produce BENCH_fuzz.json instead of one campaign: both arms' throughput \
                   and novelty timelines plus the per-mutant detection table (medians over \
                   $(b,--seeds) seeds).  Exit status 1 unless the fuzzer beats the random \
                   walker on every historical mutant.")
  in
  let seeds_arg =
    Arg.(value & opt int 5
         & info [ "seeds" ] ~docv:"K" ~doc:"Detection seeds per mutant for $(b,--bench).")
  in
  let out_arg =
    Arg.(value & opt string "BENCH_fuzz.json"
         & info [ "out" ] ~docv:"FILE" ~doc:"Where $(b,--bench) writes its JSON.")
  in
  let action quick budget execs seed max_n corpus replay random bench seeds out =
    let module F = Mdst_check.Fuzz in
    match replay with
    | Some line -> (
        let e = F.entry_of_string line in
        Printf.printf "replaying: %s\n%!" (F.entry_to_string e);
        match F.replay e with
        | Ok () -> print_endline "replay clean: no violation"
        | Error (kind, detail) ->
            Printf.printf "reproduced %s: %s\n" (F.kind_to_string kind) detail;
            exit 1)
    | None ->
        if bench then begin
          let json, beaten = F.bench_json ~quick ~seeds ~seed () in
          let oc = open_out out in
          output_string oc json;
          close_out oc;
          Printf.printf "wrote %s\n" out;
          Printf.printf "fuzz beats random on all mutants: %b\n" beaten;
          if not beaten then exit 1
        end
        else begin
          let mode = if random then `Random_walk else `Fuzz in
          let budget_s = if quick then min budget 30.0 else budget in
          let st =
            F.campaign ~mode ~quick ~budget_s ?max_execs:execs ?max_n
              ?corpus_dir:corpus ~seed ()
          in
          Printf.printf
            "%s: %d executions in %.1fs (%.0f/s)\ncorpus: %d entries%s\n\
             coverage: %d fingerprints, %d coarse shapes, %d probe buckets\n"
            (match mode with `Fuzz -> "fuzz" | `Random_walk -> "random walk")
            st.F.s_execs st.F.s_elapsed
            (float_of_int st.F.s_execs /. Float.max 1e-9 st.F.s_elapsed)
            st.F.s_corpus
            (match corpus with Some d -> Printf.sprintf " (saved in %s)" d | None -> "")
            st.F.s_fine st.F.s_coarse st.F.s_buckets;
          match st.F.s_trophies with
          | [] -> print_endline "no violations found"
          | ts ->
              Printf.printf "%d TROPHIES (shrunk; replay with --replay):\n" (List.length ts);
              List.iter
                (fun (t : F.trophy) ->
                  Printf.printf "  %s: %s\n    %s\n" (F.kind_to_string t.F.t_kind)
                    t.F.t_detail
                    (F.entry_to_string t.F.t_entry))
                ts;
              exit 1
        end
  in
  let term =
    Term.(
      const action $ quick_arg $ budget_arg $ execs_arg $ fuzz_seed_arg $ max_n_arg
      $ corpus_arg $ replay_arg $ random_arg $ bench_arg $ seeds_arg $ out_arg)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Coverage-guided schedule fuzzing: mutate delivery schedules through the \
             engine's schedule-control hook under swarm configurations, rank by \
             projection-fingerprint and handler-probe novelty, run every execution in \
             lockstep with the reference model, and shrink any violation to a one-line \
             reproducer.")
    term

(* ---- mutate ---- *)

let mutate_cmd =
  let only_arg =
    Arg.(value & opt (some string) None
         & info [ "only" ] ~docv:"NAME" ~doc:"Run a single mutant instead of the whole registry.")
  in
  let fuzz_arg =
    Arg.(value & flag
         & info [ "fuzz" ]
             ~doc:"Also run each mutant under a short schedule-fuzzing budget and report \
                   how many executions the coverage-guided campaign and the uniform \
                   random walker need to find it (medians over $(b,--fuzz-seeds) seeds).")
  in
  let fuzz_seeds_arg =
    Arg.(value & opt int 3
         & info [ "fuzz-seeds" ] ~docv:"K" ~doc:"Detection seeds per mutant for $(b,--fuzz).")
  in
  let action only fuzz fuzz_seeds =
    let module M = Mdst_check.Mutants in
    let module F = Mdst_check.Fuzz in
    let mutants = match only with None -> M.all | Some name -> [ M.find name ] in
    let outcomes = List.map M.run mutants in
    let fuzz_max_execs = 500 in
    let detections =
      if not fuzz then []
      else
        List.map
          (fun (m : M.mutant) ->
            let d = F.detect ~seeds:fuzz_seeds ~max_execs:fuzz_max_execs ~budget_s:45.0 m.M.name in
            Printf.printf "  fuzz-detect %-24s done\n%!" m.M.name;
            d)
          mutants
    in
    List.iter
      (fun (o : M.outcome) ->
        Printf.printf "%-24s %s\n" o.name o.source;
        Printf.printf "  mutant on : %s  %s\n"
          (if o.caught then "DETECTED (ok)" else "UNDETECTED (FAIL)")
          o.on_detail;
        Printf.printf "  mutant off: %s  %s\n%!"
          (if o.clean then "silent (ok)" else "FALSE POSITIVE (FAIL)")
          o.off_detail)
      outcomes;
    if detections <> [] then begin
      Printf.printf "\ndetection cost (median executions to first trophy, %d seeds, cap %d):\n"
        fuzz_seeds fuzz_max_execs;
      Printf.printf "  %-24s %10s %10s\n" "mutant" "fuzz" "random";
      List.iter
        (fun (d : F.detection) ->
          let med arr = F.median_execs arr ~max_execs:fuzz_max_execs in
          let show m = if m > fuzz_max_execs then ">" ^ string_of_int fuzz_max_execs else string_of_int m in
          let f = med d.F.d_fuzz and r = med d.F.d_random in
          Printf.printf "  %-24s %10s %10s%s\n" d.F.d_mutant (show f) (show r)
            (if f < r then "  fuzz faster" else if f > r then "  random faster" else ""))
        detections
    end;
    let bad = List.filter (fun o -> not (M.ok o)) outcomes in
    if bad = [] then
      Printf.printf "mutate: %d/%d mutants detected, no false positives\n"
        (List.length outcomes) (List.length outcomes)
    else begin
      Printf.printf "mutate: %d of %d mutants FAILED: %s\n" (List.length bad)
        (List.length outcomes)
        (String.concat ", " (List.map (fun (o : M.outcome) -> o.name) bad));
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "mutate"
       ~doc:"Mutation-check the suite: force each historical-bug mutant on (its probe must detect it) and off (the probe must stay silent).  With $(b,--fuzz), also measure schedule-fuzzing detection cost against the random-walk baseline.")
    Term.(const action $ only_arg $ fuzz_arg $ fuzz_seeds_arg)

(* ---- families ---- *)

let families_cmd =
  let action () =
    print_endline "graph families (use with --family):";
    List.iter (fun f -> print_endline ("  " ^ f)) Gen.family_names;
    print_endline "named experiment workloads:";
    List.iter (fun w -> print_endline ("  " ^ w)) Mdst_analysis.Workloads.names
  in
  Cmd.v (Cmd.info "families" ~doc:"List graph families and named workloads.") Term.(const action $ const ())

let () =
  let doc = "Self-stabilizing minimum-degree spanning tree (Blin et al., IPDPS 2009) simulator" in
  let info = Cmd.info "mdst_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; solve_cmd; compare_cmd; props_cmd; experiments_cmd; bench_cmd; pardet_cmd; pbt_cmd; explore_cmd; fuzz_cmd; mutate_cmd; families_cmd ]))
