(* Benchmark entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   Prints one JSON object as the last line of standard output (end-to-end
   metrics measured for S seconds with --trace 0; per-layer metrics from
   one untraced and one traced pass with --trace 1) and, with
   --out, writes the same object to DIR/<workload>-seed<N>-<e2e|layers>.json.
   Exits 1 when any instance fails the gate or a count does not repeat. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--out", Arg.Set_string out, "DIR also write the result here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w = Perfbench.Workload.find !workload in
  let r, kind =
    match !trace with
    | 0 -> (Perfbench.Bench.end_to_end w ~seed:!seed ~seconds:!seconds, "e2e")
    | 1 -> (Perfbench.Bench.per_layer w ~seed:!seed, "layers")
    | _ -> invalid_arg "--trace takes 0 or 1"
  in
  let line = Perfbench.Bench.json r in
  if !out <> "" then begin
    let path = Filename.concat !out (Printf.sprintf "%s-seed%d-%s.json" w.name !seed kind) in
    Out_channel.with_open_text path (fun oc -> output_string oc (line ^ "\n"))
  end;
  print_endline line;
  if not r.correct then exit 1
