let sample =
  ".model test\n\
   .inputs a b c\n\
   .outputs f g\n\
   # f = a*b + !c, g = !(a + c)\n\
   .names a b ab\n\
   11 1\n\
   .names ab nc f\n\
   1- 1\n\
   -1 1\n\
   .names c nc\n\
   0 1\n\
   .names a c g\n\
   00 1\n\
   .end\n"

let test_parse_basic () =
  let n = Blif.parse_string sample in
  Alcotest.(check int) "inputs" 3 (Array.length (Logic.Network.inputs n));
  Alcotest.(check int) "outputs" 2 (Array.length (Logic.Network.outputs n));
  let check_vec a b c f g =
    let outs = Logic.Eval.eval_outputs n [| a; b; c |] in
    let get nm = snd (Array.to_list outs |> List.find (fun (k, _) -> k = nm)) in
    Alcotest.(check bool) "f" f (get "f");
    Alcotest.(check bool) "g" g (get "g")
  in
  check_vec true true true true false;
  check_vec true true false true false;
  check_vec false false false true true;
  check_vec false false true false false

let test_out_of_order_names () =
  (* The nc cover appears after its use above; parser must resolve it. *)
  let n = Blif.parse_string sample in
  Alcotest.(check bool) "validates" true (Logic.Network.validate n = Ok ())

let test_offset_cover () =
  let text = ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n" in
  let n = Blif.parse_string text in
  (* f = NAND(a, b) *)
  Alcotest.(check bool) "00" true (snd (Logic.Eval.eval_outputs n [| false; false |]).(0));
  Alcotest.(check bool) "11" false (snd (Logic.Eval.eval_outputs n [| true; true |]).(0))

let test_constants () =
  let text = ".model m\n.inputs a\n.outputs one zero\n.names one\n1\n.names zero\n.end\n" in
  let n = Blif.parse_string text in
  let outs = Logic.Eval.eval_outputs n [| false |] in
  let get nm = snd (Array.to_list outs |> List.find (fun (k, _) -> k = nm)) in
  Alcotest.(check bool) "one" true (get "one");
  Alcotest.(check bool) "zero" false (get "zero")

let test_continuation_and_comments () =
  let text =
    ".model m\n.inputs a \\\nb\n.outputs f # trailing comment\n.names a b f\n11 1\n.end\n"
  in
  let n = Blif.parse_string text in
  Alcotest.(check int) "inputs" 2 (Array.length (Logic.Network.inputs n))

(* Every rejection names the line and the reason exactly: the line of a
   [\\]-continued logical line is its first physical line, and a
   resolution error (an undefined or cyclic signal) names the line of
   the cover that reads the signal, or of [.outputs] for an output. *)
let expect_error ~line ~msg text =
  match Blif.parse_string text with
  | exception Blif.Parse_error (l, m) ->
      Alcotest.(check (pair int string)) (String.escaped text) (line, msg) (l, m)
  | _ -> Alcotest.failf "expected Parse_error (%d, %s)" line msg

let test_errors () =
  expect_error ~line:5 ~msg:"bad output value 2"
    ".model m\n.inputs a\n.outputs f\n.names a f\n1 2\n.end\n";
  expect_error ~line:5 ~msg:"cube width 2 does not match 1 inputs"
    ".model m\n.inputs a\n.outputs f\n.names a f\n11 1\n.end\n";
  expect_error ~line:4 ~msg:"undefined signal b"
    ".model m\n.inputs a\n.outputs f\n.names a b f\n1- 1\n.end\n";
  expect_error ~line:4 ~msg:".latch is not supported (combinational BLIF only)"
    ".model m\n.inputs a\n.outputs f\n.latch a f re clk 0\n.end\n";
  (* combinational cycle *)
  expect_error ~line:4 ~msg:"combinational cycle through f"
    ".model m\n.inputs a\n.outputs f\n.names f a g\n11 1\n.names g a f\n11 1\n.end\n";
  (* mixed on/off set *)
  expect_error ~line:4 ~msg:"mixed on-set and off-set cubes for f"
    ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n.end\n";
  (* A cube line names the logical line in full: each physical line,
     trimmed and without its [\\], followed by one space. *)
  expect_error ~line:4 ~msg:"cube line outside a .names block: 11 1 "
    ".model m\n.inputs a b\n.outputs f\n11 1\n.names a b f\n11 1\n.end\n";
  expect_error ~line:6 ~msg:"cube line outside a .names block: 1 1 "
    ".model m\n.inputs a\n.outputs f\n.names a f\n.default_input_arrival 0 0\n1 1\n.end\n";
  expect_error ~line:6 ~msg:"bad cube character x"
    ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n1x 1\n.end\n";
  expect_error ~line:3 ~msg:"undefined signal f"
    ".model m\n.inputs a\n.outputs f\n.names a g\n1 1\n.end\n";
  expect_error ~line:4 ~msg:".names with no signals"
    ".model m\n.inputs a\n.outputs f\n.names\n.end\n";
  expect_error ~line:0 ~msg:"input a declared twice"
    ".model m\n.inputs a b\n.inputs a\n.outputs f\n.names a b f\n11 1\n.end\n";
  (* An error on a continued line reports its first physical line. *)
  expect_error ~line:5 ~msg:"bad cube character x"
    ".model m\n.inputs a b\n.outputs f\n.names a b f\n1x \\\n1\n.end\n";
  expect_error ~line:5 ~msg:"malformed cube: 1  1  1 "
    ".model m\n.inputs a\n.outputs f\n.names a f\n1 \\\n# note\n\n1 \\\n  1\n.end\n";
  (* Every syntax error is found before any resolution error: the
     malformed cube on line 7 wins over the undefined z read on line 4. *)
  expect_error ~line:7 ~msg:"malformed cube: 1 1 1 "
    ".model m\n.inputs a\n.outputs f\n.names a z f\n1- 1\n.names a g\n1 1 1\n.end\n";
  (* Covers that no output reaches are never built, so their resolution
     errors are never raised; nothing after .end is read at all. *)
  let n =
    Blif.parse_string
      ".model m\n.inputs a\n.outputs f\n.names a f\n0 1\n\
       .names a z dead\n11 1\n.names a b dead2\n11 1\n00 0\n.end\n.latch x\n"
  in
  Alcotest.(check int) "unreached covers are not built" 2
    (Logic.Network.node_count n)

(* Lexical forms the scanner accepts: CRLF line endings, tabs between
   tokens, trailing comments, unknown dot-directives (skipped), and an
   [.exdc] section, which ends the model. *)
let test_accepted_forms () =
  let text =
    ".model\tm \r\n\
     .inputs a\tb # the inputs\r\n\
     .outputs f g\r\n\
     .default_input_arrival 0 0\r\n\
     .names a b f # an and\r\n\
     11\t1\r\n\
     .names a \\\r\n\
     b g\r\n\
     0- 1\r\n\
     -0 1\r\n\
     .exdc\r\n\
     .names a b f\r\n\
     00 1 junk\r\n\
     .end\r\n"
  in
  let n = Blif.parse_string text in
  Alcotest.(check string) "name" "m" (Logic.Network.name n);
  Alcotest.(check (list string)) "inputs" [ "a"; "b" ]
    (Array.to_list
       (Array.map (Logic.Network.input_name n) (Logic.Network.inputs n)));
  Alcotest.(check (list string)) "outputs" [ "f"; "g" ]
    (Array.to_list (Array.map fst (Logic.Network.outputs n)));
  List.iter
    (fun (a, b) ->
      let outs = Logic.Eval.eval_outputs n [| a; b |] in
      Alcotest.(check bool) "f" (a && b) (snd outs.(0));
      Alcotest.(check bool) "g" (not (a && b)) (snd outs.(1)))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_roundtrip_benchmarks () =
  List.iter
    (fun name ->
      let net = Gen.Suite.build_exn name in
      Alcotest.(check bool) (name ^ " roundtrips") true (Blif.roundtrip_check net))
    [ "cm150"; "z4ml"; "9symml"; "c880"; "frg1"; "c1908" ]

let test_writer_xor () =
  let b = Logic.Builder.create () in
  let xs = Logic.Builder.inputs b "x" 3 in
  Logic.Network.set_output (Logic.Builder.network b)
    "p"
    (Logic.Network.add_gate (Logic.Builder.network b) Logic.Gate.Xor xs);
  let net = Logic.Builder.network b in
  Alcotest.(check bool) "xor cover roundtrips" true (Blif.roundtrip_check net)

let test_duplicate_definition () =
  expect_error ~line:6 ~msg:"signal f is defined twice"
    ".model m\n.inputs a b\n.outputs f\n.names a f\n1 1\n.names b f\n1 1\n.end\n"

let suite =
  [
    Alcotest.test_case "parse basic model" `Quick test_parse_basic;
    Alcotest.test_case "out-of-order covers" `Quick test_out_of_order_names;
    Alcotest.test_case "off-set cover" `Quick test_offset_cover;
    Alcotest.test_case "constant covers" `Quick test_constants;
    Alcotest.test_case "continuations and comments" `Quick test_continuation_and_comments;
    Alcotest.test_case "parse errors" `Quick test_errors;
    Alcotest.test_case "accepted lexical forms" `Quick test_accepted_forms;
    Alcotest.test_case "benchmark roundtrips" `Quick test_roundtrip_benchmarks;
    Alcotest.test_case "xor writer" `Quick test_writer_xor;
    Alcotest.test_case "duplicate signal rejected" `Quick test_duplicate_definition;
  ]
