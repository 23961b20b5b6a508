module Graph = Mdst_graph.Graph
module Tree = Mdst_graph.Tree

type result = {
  converged : bool;
  rounds : int;
  tree : Tree.t option;
  degree : int option;
  total_messages : int;
  fingerprint : int;
}

let converge ?(seed = 42) ?(init = `Clean) ?(max_rounds = 60_000) ?quiet_rounds ?fixpoint graph =
  let engine = Run.make_engine ~seed ~init graph in
  let stop = Run.make_stop ?quiet_rounds ?fixpoint () in
  let finished = ref (stop engine) in
  while (not !finished) && Run.Sim.rounds engine < max_rounds do
    Run.Sim.sync_round engine;
    if stop engine then finished := true
  done;
  let converged = stop engine in
  let tree = Checker.tree_of_states graph (Run.Sim.states engine) in
  {
    converged;
    rounds = Run.Sim.rounds engine;
    tree;
    degree = Option.map Tree.max_degree tree;
    total_messages = Mdst_sim.Metrics.total_messages (Run.Sim.metrics engine);
    fingerprint = Checker.fingerprint (Run.Sim.states engine);
  }
