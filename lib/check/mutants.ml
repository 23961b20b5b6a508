module Mutation = Mdst_util.Mutation
module Graph = Mdst_graph.Graph

type verdict = Detected of string | Silent of string

type mutant = { name : string; source : string; probe : unit -> verdict }

(* Each probe is the narrowest standing check that notices its bug: fixed
   fixtures found by running the generating properties under the mutant and
   keeping the shrunk reproducers, so [mdst_sim mutate] is fast and
   deterministic rather than a fresh property search per run. *)

let conformance_sweep (module C : Conformance.S) fixtures =
  let rec go = function
    | [] ->
        Silent
          (Printf.sprintf "lockstep conformance held across %d fixtures"
             (List.length fixtures))
    | f :: rest -> (
        match (C.run_case (Conformance.case_of_string f)).Lockstep.failure with
        | Some d ->
            Detected
              (Printf.sprintf "divergence at %s  [%s]" (Lockstep.describe d) f)
        | None -> go rest)
  in
  go fixtures

let k5 = "0-1,0-2,0-3,0-4,1-2,1-3,1-4,2-3,2-4,3-4"

(* Random starts on K5 force degree-improving swaps, so Grants flow; long
   event horizons make sure at least one Grant is delivered in-window. *)
let grant_drop_fixtures =
  [
    Printf.sprintf "n=5;edges=%s;seed=12;init=random;events=8000" k5;
    Printf.sprintf "n=5;edges=%s;seed=13;init=random;events=8000" k5;
    Printf.sprintf "n=5;edges=%s;seed=14;init=random;events=8000" k5;
  ]

(* Clean starts quiesce quickly, so the 8-tick refresh boundary is reached
   with an unchanged Info cache well inside the event budget. *)
let suppression_fixtures =
  [
    "n=3;edges=0-1,1-2;seed=5;init=clean;events=400";
    "n=4;edges=0-1,1-2,2-3,0-3;seed=9;init=clean;events=600";
  ]

(* Shrunk reproducer of the faults_pending race: a corruption window closes
   before its tampered message is delivered, so a stop check that ignores
   [Pengine.faults_pending] declares convergence on a doomed configuration. *)
let race_fixture =
  "n=5;ids=5,3,4,1,2;edges=0-1,0-4,1-2,1-3,1-4,2-3,3-4;seed=57795;plan=seed=338085|corrupt:403-407:1>3:0.73"

let stop_check_race_probe () =
  match
    Convergence.Default.prop () (Convergence.case_of_string race_fixture)
  with
  | Error reason -> Detected reason
  | Ok () -> Silent "convergence and closure hold on the stop-race fixture"

module CE = Mdst_sim.Pengine.Make (Mdst_core.Proto.Default)

(* [corrupt ~channels:b] must advance the engine's own stream identically
   for both values of [b]; if channel injection leaks draws from it, a
   second corruption lands on different victims with different states. *)
let corrupt_stream_probe () =
  let mk () = CE.create ~seed:9 ~init:`Clean (Graph.complete 4) in
  let e1 = mk () and e2 = mk () in
  ignore (CE.corrupt e1 ~channels:false ());
  ignore (CE.corrupt e1 ~channels:false ());
  ignore (CE.corrupt e2 ~channels:true ());
  ignore (CE.corrupt e2 ~channels:false ());
  if CE.states e1 = CE.states e2 then
    Silent "channel injection left the engine stream untouched"
  else
    Detected
      "engine streams decoupled: a second corruption differs depending on \
       whether the first one injected channels"

let all =
  [
    {
      name = "grant-drop";
      source = "PR 1 lossy variant: Grants discarded on receipt, validated \
                swaps never commit";
      probe =
        (fun () ->
          conformance_sweep (module Conformance.Default) grant_drop_fixtures);
    };
    {
      name = "stop-check-race";
      source = "PR 1 harness race: stop predicate ran while scheduled or \
                in-flight tampered faults were still pending";
      probe = stop_check_race_probe;
    };
    {
      name = "corrupt-shared-stream";
      source = "PR 2 schedule coupling: channel corruption drew from the \
                engine's own stream";
      probe = corrupt_stream_probe;
    };
    {
      name = "suppression-no-refresh";
      source = "PR 3 failure mode: dirty-bit Info suppression without the \
                periodic refresh";
      probe =
        (fun () ->
          conformance_sweep (module Conformance.Suppressed)
            suppression_fixtures);
    };
  ]

(* The registry and the flag namespace must not drift apart. *)
let () = assert (List.map (fun m -> m.name) all = Mutation.names)

let find name =
  match List.find_opt (fun m -> m.name = name) all with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "Mutants.find: unknown mutant %S (known: %s)" name
           (String.concat ", " (List.map (fun m -> m.name) all)))

type outcome = {
  name : string;
  source : string;
  caught : bool;
  clean : bool;
  on_detail : string;
  off_detail : string;
}

let ok o = o.caught && o.clean

let run (m : mutant) =
  Fun.protect ~finally:(fun () -> Mutation.force None) @@ fun () ->
  Mutation.force (Some [ m.name ]);
  let on_v = m.probe () in
  Mutation.force (Some []);
  let off_v = m.probe () in
  let detail = function Detected d | Silent d -> d in
  {
    name = m.name;
    source = m.source;
    caught = (match on_v with Detected _ -> true | Silent _ -> false);
    clean = (match off_v with Silent _ -> true | Detected _ -> false);
    on_detail = detail on_v;
    off_detail = detail off_v;
  }

let run_all () = List.map run all
