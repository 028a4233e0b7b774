(* gencircuit: emit a benchmark circuit as BLIF (or DOT), so the suite can
   be inspected or fed to external tools.

   Examples:
     gencircuit --list
     gencircuit --bench des -o des.blif
     gencircuit --bench cm150 --dot -o cm150.dot *)

open Cmdliner

let main list_them bench dot out =
  if list_them then begin
    List.iter
      (fun e ->
        let net = e.Gen.Suite.build () in
        let s = Logic.Stats.compute net in
        Printf.printf "%-8s pi=%3d po=%3d gates=%5d depth=%2d  %s\n"
          e.Gen.Suite.name s.Logic.Stats.inputs s.Logic.Stats.outputs
          s.Logic.Stats.gates s.Logic.Stats.depth e.Gen.Suite.description)
      (Gen.Suite.all @ Gen.Suite.extras);
    exit 0
  end;
  match bench with
  | None ->
      prerr_endline "--bench NAME is required (or --list)";
      exit 2
  | Some name -> (
      match Gen.Suite.find name with
      | None ->
          prerr_endline ("unknown benchmark: " ^ name);
          exit 2
      | Some e ->
          let net = e.Gen.Suite.build () in
          let text = if dot then Logic.Dot.to_string net else Blif.to_string net in
          (match out with
          | None -> print_string text
          | Some path ->
              let oc = open_out path in
              output_string oc text;
              close_out oc))

let cmd =
  let list_them = Arg.(value & flag & info [ "list" ] ~doc:"List all benchmarks with statistics.") in
  let bench =
    Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"NAME" ~doc:"Benchmark name.")
  in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of BLIF.") in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "gencircuit" ~doc:"emit benchmark circuits as BLIF or DOT")
    Term.(const main $ list_them $ bench $ dot $ out)

let () = exit (Cmd.eval cmd)
