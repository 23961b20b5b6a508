(* E20 — protocol macro-benchmarks.

   Where E19 (bench_engine) meters the *engine* on a fixed event budget,
   this meters the *protocol*: full clean-start runs to convergence
   (legitimacy + fingerprint quiescence, no FR oracle) at n up to 2048 on
   ER (avg deg 4), grid and star topologies.  Per point it records
   wall-clock to convergence, total messages/bits, the peak number of
   in-flight events (sampled at stop-check granularity) and the GC
   allocation volume of the whole run — the cost driven by the Search
   path construction and the per-tick Info fan-out, i.e. the protocol hot
   path this trajectory exists to keep honest.

   The star topology is deliberately degenerate: the hub gossips to n-1
   neighbours every tick, which is the worst case for Info fan-out and
   the best case for dirty-bit suppression, while the graph is already a
   tree so no cycle search ever completes.  Points are serialized to
   BENCH_proto.json via `mdst_sim bench --proto` / `make bench-proto`,
   the same trajectory path as BENCH_engine.json. *)

module Graph = Mdst_graph.Graph
module Gen = Mdst_graph.Gen
module Prng = Mdst_util.Prng
module Run = Mdst_core.Run
module Proto = Mdst_core.Proto
module Metrics = Mdst_sim.Metrics

type point = {
  topology : string;
  n : int;
  m : int;
  suppression : bool;  (** Info dirty-bit suppression mode active? *)
  converged : bool;
  rounds : int;
  elapsed_s : float;
  messages : int;  (** total sends over the run *)
  bits : int;  (** idealised encoded volume of those sends *)
  peak_in_flight : int;  (** max pending engine events, sampled every stop check *)
  suppressed : int;  (** Info sends elided by suppression (0 when off) *)
  allocated_bytes : float;  (** GC allocation volume of engine build + run *)
}

let sizes ~quick = if quick then [ 64; 256 ] else [ 64; 256; 1024; 2048 ]

let topologies = [ "er"; "grid"; "star" ]

let max_rounds = 60_000

let graph_for topology n =
  match topology with
  | "er" ->
      (* Same family/seed scheme as Bench_engine so the two trajectories
         describe the same graphs. *)
      let p = 4.0 /. float_of_int (n - 1) in
      Gen.erdos_renyi_connected (Prng.create (0xbe2c lxor n)) ~n ~p
  | "grid" | "star" -> Gen.by_name topology (Prng.create (0xbe2c lxor n)) ~n
  | other -> invalid_arg (Printf.sprintf "Bench_proto.graph_for: unknown topology %S" other)

module Bench
    (A : Mdst_sim.Node.AUTOMATON
           with type state = Mdst_core.State.t
            and type msg = Mdst_core.Msg.t) =
struct
  module R = Run.Runner (A)

  let point ~topology ~suppression graph =
    let alloc0 = Gc.allocated_bytes () in
    let engine = R.make_engine ~seed:11 ~init:`Clean graph in
    let stop_inner = R.make_stop () in
    let peak = ref 0 in
    let stop t =
      let p = R.Sim.pending_events t in
      if p > !peak then peak := p;
      stop_inner t
    in
    let t0 = Unix.gettimeofday () in
    let outcome = R.Sim.run engine ~max_rounds ~check_every:2 ~stop () in
    let elapsed = Unix.gettimeofday () -. t0 in
    let alloc1 = Gc.allocated_bytes () in
    let metrics = R.Sim.metrics engine in
    {
      topology;
      n = Graph.n graph;
      m = Graph.m graph;
      suppression;
      converged = outcome.converged;
      rounds = outcome.rounds;
      elapsed_s = elapsed;
      messages = Metrics.total_messages metrics;
      bits = Metrics.total_bits metrics;
      peak_in_flight = !peak;
      suppressed = Metrics.suppressed_sends metrics;
      allocated_bytes = alloc1 -. alloc0;
    }
end

module Default_bench = Bench (Proto.Default)
module Suppressed_bench = Bench (Proto.Suppressed)

let bench_point ~topology ~suppression graph =
  if suppression then Suppressed_bench.point ~topology ~suppression graph
  else Default_bench.point ~topology ~suppression graph

let points ?(quick = false) ?sizes:size_list ?(progress = fun _ -> ()) () =
  let ns = match size_list with Some l -> l | None -> sizes ~quick in
  List.concat_map
    (fun suppression ->
      List.concat_map
        (fun topology ->
          List.map
            (fun n ->
              let p = bench_point ~topology ~suppression (graph_for topology n) in
              progress p;
              p)
            ns)
        topologies)
    [ false; true ]

let table pts =
  let t =
    Table.make ~title:"E20: protocol macro-benchmarks (clean start to convergence)"
      ~columns:
        [ "topology"; "n"; "m"; "suppr"; "conv"; "rounds"; "secs"; "msgs"; "Mbits";
          "peak-fly"; "elided"; "alloc MB" ]
  in
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.topology;
          Table.cell_int p.n;
          Table.cell_int p.m;
          (if p.suppression then "on" else "off");
          (if p.converged then "yes" else "NO");
          Table.cell_int p.rounds;
          Table.cell_float ~decimals:1 p.elapsed_s;
          Table.cell_int p.messages;
          Table.cell_float ~decimals:1 (float_of_int p.bits /. 1e6);
          Table.cell_int p.peak_in_flight;
          Table.cell_int p.suppressed;
          Table.cell_float ~decimals:1 (p.allocated_bytes /. 1e6);
        ])
    pts;
  Table.add_note t
    "alloc MB = Gc.allocated_bytes over engine build + run; peak-fly sampled every stop check \
     (2 rounds)";
  t

(* The registry path rides inside the tier-1 quick smoke (60 s budget for
   the whole suite), so quick mode here stays at n = 64 only; the CLI
   bench path keeps the larger quick set via [points]. *)
let run ?(quick = false) () =
  [ table (if quick then points ~quick ~sizes:[ 64 ] () else points ()) ]

(* Same hand-rolled flat-JSON scheme as Bench_engine (no JSON dependency). *)
let to_json ?(quick = false) pts =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"schema\": \"mdst-bench-proto/1\",\n  \"quick\": %b,\n  \"points\": [\n"
       quick);
  List.iteri
    (fun i p ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"topology\": %S, \"n\": %d, \"m\": %d, \"suppression\": %b, \
            \"converged\": %b, \"rounds\": %d, \"elapsed_s\": %.17g, \"messages\": %d, \
            \"bits\": %d, \"peak_in_flight\": %d, \"suppressed\": %d, \
            \"allocated_bytes\": %.17g}%s\n"
           p.topology p.n p.m p.suppression p.converged p.rounds p.elapsed_s p.messages
           p.bits p.peak_in_flight p.suppressed p.allocated_bytes
           (if i = List.length pts - 1 then "" else ",")))
    pts;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let write_json ~path ?(quick = false) pts =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_json ~quick pts))

let pp_point ppf p =
  Format.fprintf ppf
    "%-5s n=%-5d suppr=%-3s conv=%b rounds=%d %.1fs msgs=%d alloc=%.1fMB"
    p.topology p.n
    (if p.suppression then "on" else "off")
    p.converged p.rounds p.elapsed_s p.messages
    (p.allocated_bytes /. 1e6)
