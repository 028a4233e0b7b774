(* Constant nets that fold through to primary outputs: regression tests
   for the mapper crash on [F_const] output bindings, plus the soimap
   exit-code contract. *)

let const_blif =
  ".model consts\n\
   .inputs a b\n\
   .outputs one zero f g\n\
   .names one\n\
   1\n\
   .names zero\n\
   .names a b f\n\
   11 1\n\
   .names one a g\n\
   11 1\n\
   .end\n"

let flows =
  [
    ("bulk", Mapper.Algorithms.Domino_map);
    ("rs", Mapper.Algorithms.Rs_map);
    ("soi", Mapper.Algorithms.Soi_domino_map);
  ]

let output_signal circuit nm =
  match
    Array.find_opt (fun (n, _) -> n = nm) circuit.Domino.Circuit.outputs
  with
  | Some (_, s) -> s
  | None -> Alcotest.fail ("missing output " ^ nm)

let test_constant_outputs_map () =
  let net = Blif.parse_string const_blif in
  List.iter
    (fun (label, flow) ->
      let r = Mapper.Algorithms.run flow net in
      let circuit = r.Mapper.Algorithms.circuit in
      (match Domino.Circuit.validate circuit with
      | Ok () -> ()
      | Error e -> Alcotest.fail (label ^ ": invalid circuit: " ^ e));
      (* Constant outputs are rail ties, not gates. *)
      Alcotest.(check bool)
        (label ^ ": one tied high")
        true
        (output_signal circuit "one" = Domino.Pdn.S_const true);
      Alcotest.(check bool)
        (label ^ ": zero tied low")
        true
        (output_signal circuit "zero" = Domino.Pdn.S_const false);
      (* Functional agreement with the source on every vector. *)
      for v = 0 to 3 do
        let pi = [| v land 1 = 1; v land 2 = 2 |] in
        let want = Logic.Eval.eval_outputs net pi in
        let got = Domino.Circuit.eval circuit pi in
        let sort a = List.sort compare (Array.to_list a) in
        Alcotest.(check (list (pair string bool)))
          (Printf.sprintf "%s: vector %d" label v)
          (sort want) (sort got)
      done;
      (* And the formal proof goes through the rail ties too. *)
      Alcotest.(check bool)
        (label ^ ": formally equivalent")
        true
        (Domino.Circuit.equivalent_exact circuit net = Logic.Equiv.Equivalent))
    flows

let test_all_constant_network () =
  (* Every output a constant: the mapped circuit has no gates at all. *)
  let net =
    Blif.parse_string
      ".model rails\n.inputs a\n.outputs one zero\n.names one\n1\n.names zero\n.end\n"
  in
  let r = Mapper.Algorithms.soi_domino_map net in
  let circuit = r.Mapper.Algorithms.circuit in
  Alcotest.(check int) "no gates" 0 (Array.length circuit.Domino.Circuit.gates);
  Alcotest.(check int) "no transistors" 0
    (Domino.Circuit.counts circuit).Domino.Circuit.t_total;
  Alcotest.(check bool) "formally equivalent" true
    (Domino.Circuit.equivalent_exact circuit net = Logic.Equiv.Equivalent)

let test_complementary_folds_to_constant () =
  (* x & ~x folds to false during unate preparation; the prepared
     network must stay mappable rather than being rejected. *)
  let n = Logic.Network.create ~name:"contradiction" () in
  let x = Logic.Network.add_input ~name:"x" n in
  let nx = Logic.Network.add_gate n Logic.Gate.Not [| x |] in
  Logic.Network.set_output n "f" (Logic.Network.add_gate n Logic.Gate.And [| x; nx |]);
  let u = Mapper.Algorithms.prepare n in
  Alcotest.(check int) "folded to zero nodes" 0 (Unate.Unetwork.node_count u);
  let circuit, _ = Mapper.Engine.map Mapper.Engine.default_options u in
  Alcotest.(check bool) "f tied low" true
    (output_signal circuit "f" = Domino.Pdn.S_const false);
  Alcotest.(check bool) "simulates false" true
    (Domino.Circuit.eval circuit [| true |] = [| ("f", false) |])

(* ------------------------------------------------------------------ *)
(* soimap exit codes, over the real executable.                        *)
(* ------------------------------------------------------------------ *)

let soimap args =
  Sys.command (Printf.sprintf "../bin/soimap.exe %s >/dev/null 2>/dev/null" args)

let write_temp suffix contents =
  let path = Filename.temp_file "soimap_test" suffix in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let test_soimap_exit_codes () =
  Alcotest.(check int) "unknown benchmark is a usage error" 2
    (soimap "--bench no-such-circuit");
  Alcotest.(check int) "missing file is a usage error" 2
    (soimap "--blif /nonexistent/missing.blif");
  Alcotest.(check int) "two sources is a usage error" 2
    (soimap "--bench mux --blif x.blif");
  Alcotest.(check int) "an extras benchmark maps" 0 (soimap "--bench fig3");
  Alcotest.(check int) "a width below 2 is a usage error" 2
    (soimap "--bench fig3 --w-max 1");
  Alcotest.(check int) "unknown remap base is a usage error" 2
    (soimap "--bench mux --remap no-such-circuit");
  let bad = write_temp ".blif" ".model broken\n.latch a b\n.end\n" in
  Fun.protect ~finally:(fun () -> Sys.remove bad) (fun () ->
      Alcotest.(check int) "malformed BLIF is a usage error" 2
        (soimap ("--blif " ^ Filename.quote bad)))

(* --remap under a tripped budget follows --on-exhaust as a map does. *)
let test_soimap_remap_budget () =
  let out = Filename.temp_file "soimap_test" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove out) (fun () ->
      let run args =
        let rc =
          Sys.command
            (Printf.sprintf "../bin/soimap.exe %s >%s 2>/dev/null" args
               (Filename.quote out))
        in
        (rc, In_channel.with_open_text out In_channel.input_all)
      in
      let has s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      let rc, text = run "--bench c880 --remap mux --max-tuples=1" in
      Alcotest.(check int) "a degraded remap exits 0" 0 rc;
      Alcotest.(check bool) "and says DEGRADED" true (has text "  DEGRADED: ");
      let rc, text =
        run "--bench c880 --remap mux --max-tuples=1 --on-exhaust fail"
      in
      Alcotest.(check int) "a failed remap exits 3" 3 rc;
      Alcotest.(check bool) "and says EXHAUSTED" true (has text ": EXHAUSTED "))

let test_soimap_parse_error_location () =
  let bad = write_temp ".blif" ".model broken\n.latch a b\n.end\n" in
  let err = Filename.temp_file "soimap_test" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove bad;
      Sys.remove err)
    (fun () ->
      ignore
        (Sys.command
           (Printf.sprintf "../bin/soimap.exe --blif %s >/dev/null 2>%s"
              (Filename.quote bad) (Filename.quote err)));
      let ic = open_in err in
      let line = input_line ic in
      close_in ic;
      (* file:line: message *)
      let prefix = bad ^ ":2:" in
      Alcotest.(check bool)
        (Printf.sprintf "stderr %S names file and line" line)
        true
        (String.length line > String.length prefix
        && String.sub line 0 (String.length prefix) = prefix))

let test_soimap_constant_flow_all () =
  (* The original crash: constant outputs under --flow all --verify
     --exact.  All three flows must be mapped, verified and proven. *)
  let blif = write_temp ".blif" const_blif in
  Fun.protect ~finally:(fun () -> Sys.remove blif) (fun () ->
      Alcotest.(check int) "flow all verifies" 0
        (soimap
           ("--blif " ^ Filename.quote blif ^ " --flow all --verify --exact")))

let suite =
  [
    Alcotest.test_case "constant outputs map in all flows" `Quick
      test_constant_outputs_map;
    Alcotest.test_case "all-constant network" `Quick test_all_constant_network;
    Alcotest.test_case "complementary literals fold" `Quick
      test_complementary_folds_to_constant;
    Alcotest.test_case "soimap exit codes" `Quick test_soimap_exit_codes;
    Alcotest.test_case "soimap remap budget" `Quick test_soimap_remap_budget;
    Alcotest.test_case "soimap parse-error location" `Quick
      test_soimap_parse_error_location;
    Alcotest.test_case "soimap constant flow-all" `Quick
      test_soimap_constant_flow_all;
  ]
