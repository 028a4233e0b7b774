type entry = {
  name : string;
  description : string;
  build : unit -> Logic.Network.t;
}

let random ~name ~inputs ~gates ~outputs ~seed =
  {
    name;
    description =
      Printf.sprintf
        "seeded random multi-level logic (%d PI, %d gates grown, %d PO); \
         stand-in for the undocumented MCNC benchmark"
        inputs gates outputs;
    build =
      (fun () ->
        Random_logic.generate
          (Random_logic.default ~name ~inputs ~gates ~outputs ~seed));
  }

let all =
  [
    {
      name = "cm150";
      description = "16:1 multiplexer (documented cm150a function)";
      build = (fun () -> Circuits.mux_tree 4);
    };
    {
      name = "mux";
      description = "16:1 multiplexer (documented mux function)";
      build = (fun () -> Circuits.mux_tree 4);
    };
    {
      name = "z4ml";
      description = "3-bit ripple adder with carry (7 PI / 4 PO, as z4ml)";
      build = (fun () -> Circuits.adder 3);
    };
    {
      name = "cordic";
      description = "3-bit CORDIC micro-rotation stage (shift 1)";
      build = (fun () -> Circuits.cordic_stage 3 1);
    };
    random ~name:"frg1" ~inputs:28 ~gates:100 ~outputs:3 ~seed:1001;
    {
      name = "f51m";
      description = "4x4 array multiplier (8 PI / 8 PO arithmetic, as f51m)";
      build = (fun () -> Circuits.multiplier 4);
    };
    {
      name = "count";
      description = "16-bit loadable up-counter next-state logic (35 PI)";
      build = (fun () -> Circuits.counter_next 16);
    };
    random ~name:"b9" ~inputs:41 ~gates:65 ~outputs:21 ~seed:1002;
    random ~name:"c8" ~inputs:28 ~gates:60 ~outputs:18 ~seed:1003;
    {
      name = "9symml";
      description = "9-input symmetric function, true iff popcount in {3..6}";
      build = (fun () -> Circuits.sym9 ());
    };
    random ~name:"apex7" ~inputs:49 ~gates:97 ~outputs:37 ~seed:1004;
    random ~name:"x1" ~inputs:51 ~gates:134 ~outputs:35 ~seed:1005;
    {
      name = "c432";
      description = "27-channel priority interrupt controller slice";
      build = (fun () -> Circuits.priority 27);
    };
    {
      name = "c880";
      description = "8-bit ALU (add/sub/and/xor + flags), as c880";
      build = (fun () -> Circuits.alu 8);
    };
    random ~name:"i6" ~inputs:138 ~gates:190 ~outputs:67 ~seed:1006;
    {
      name = "c499";
      description = "32-bit single-error-correcting Hamming stage";
      build = (fun () -> Circuits.ecc 32);
    };
    {
      name = "c1355";
      description = "32-bit single-error-correcting Hamming stage (same \
                     function as c499, as in the original suite)";
      build = (fun () -> Circuits.ecc 32);
    };
    {
      name = "c1908";
      description = "26-bit single-error-correcting Hamming stage";
      build = (fun () -> Circuits.ecc 26);
    };
    random ~name:"t481" ~inputs:16 ~gates:950 ~outputs:1 ~seed:1007;
    random ~name:"apex6" ~inputs:135 ~gates:272 ~outputs:99 ~seed:1008;
    random ~name:"k2" ~inputs:45 ~gates:359 ~outputs:45 ~seed:1009;
    random ~name:"dalu" ~inputs:75 ~gates:310 ~outputs:16 ~seed:1010;
    random ~name:"rot" ~inputs:135 ~gates:395 ~outputs:107 ~seed:1011;
    random ~name:"c2670" ~inputs:157 ~gates:370 ~outputs:64 ~seed:1012;
    random ~name:"c3540" ~inputs:50 ~gates:1000 ~outputs:22 ~seed:1013;
    random ~name:"c5315" ~inputs:178 ~gates:810 ~outputs:123 ~seed:1014;
    random ~name:"c7552" ~inputs:207 ~gates:1235 ~outputs:108 ~seed:1015;
    {
      name = "des";
      description = "one full DES round: E expansion, 8 FIPS S-boxes, P \
                     permutation, Feistel XOR";
      build = (fun () -> Des.round ());
    };
  ]

let table1_names =
  [
    "cm150"; "mux"; "z4ml"; "cordic"; "frg1"; "b9"; "apex7"; "c432"; "c880";
    "t481"; "c1355"; "apex6"; "c1908"; "k2"; "c2670"; "c5315"; "c7552"; "des";
  ]

let table2_names =
  [
    "cm150"; "mux"; "z4ml"; "cordic"; "frg1"; "f51m"; "count"; "b9"; "9symml";
    "apex7"; "c432"; "c880"; "t481"; "c1355"; "apex6"; "c1908"; "k2"; "c2670";
    "c5315"; "c7552"; "des";
  ]

let table3_names =
  [
    "cm150"; "mux"; "z4ml"; "cordic"; "frg1"; "count"; "b9"; "c8"; "f51m";
    "9symml"; "apex7"; "x1"; "c432"; "i6"; "c1908"; "t481"; "c499"; "c1355";
    "dalu"; "k2"; "apex6"; "rot"; "c2670"; "c5315"; "c3540"; "des"; "c7552";
  ]

let table4_names =
  [
    "z4ml"; "cm150"; "mux"; "cordic"; "f51m"; "c8"; "frg1"; "b9"; "count";
    "c432"; "apex7"; "9symml"; "c1908"; "x1"; "i6"; "c1355"; "t481"; "rot";
    "apex6"; "k2"; "c2670"; "dalu"; "c3540"; "c5315"; "c7552"; "des";
  ]

let extras =
  [
    {
      name = "fig3";
      description =
        "the paper's Figure 3 network, f = (a*b) + (c*d); the worked \
         mapping example and the certification smoke target";
      build =
        (fun () ->
          let b = Logic.Builder.create ~name:"fig3" () in
          let a = Logic.Builder.input b "a"
          and b' = Logic.Builder.input b "b" in
          let c = Logic.Builder.input b "c"
          and d = Logic.Builder.input b "d" in
          Logic.Builder.output b "f"
            (Logic.Builder.or2 b
               (Logic.Builder.and2 b a b')
               (Logic.Builder.and2 b c d));
          Logic.Builder.network b);
    };
    {
      name = "cla16";
      description = "16-bit carry-lookahead adder (Kogge-Stone prefix)";
      build = (fun () -> Circuits.cla_adder 16);
    };
    {
      name = "wmul6";
      description = "6x6 Wallace-tree multiplier (carry-save reduction)";
      build = (fun () -> Circuits.wallace_multiplier 6);
    };
    {
      name = "barrel16";
      description = "16-bit barrel rotator";
      build = (fun () -> Circuits.barrel_shifter 4);
    };
    {
      name = "gray8";
      description = "8-bit Gray-code counter next-state logic";
      build = (fun () -> Circuits.gray_counter_next 8);
    };
    {
      name = "lfsr16";
      description = "16-bit Fibonacci LFSR next-state logic";
      build = (fun () -> Circuits.lfsr_next 16);
    };
    {
      name = "dec5";
      description = "5-to-32 line decoder with enable";
      build = (fun () -> Circuits.decoder 5);
    };
  ]

(* The paper's suite first, then the extras: every circuit is
   addressable by one name. *)
let find name =
  match List.find_opt (fun e -> e.name = name) all with
  | Some _ as e -> e
  | None -> List.find_opt (fun e -> e.name = name) extras

let build_exn name =
  match find name with Some e -> e.build () | None -> raise Not_found

(* Parameters of the seeded random stand-ins, kept alongside [all] so the
   seed-sensitivity study can rebuild them with shifted seeds. *)
let random_params =
  [
    ("frg1", (28, 100, 3, 1001));
    ("b9", (41, 65, 21, 1002));
    ("c8", (28, 60, 18, 1003));
    ("apex7", (49, 97, 37, 1004));
    ("x1", (51, 134, 35, 1005));
    ("i6", (138, 190, 67, 1006));
    ("t481", (16, 950, 1, 1007));
    ("apex6", (135, 272, 99, 1008));
    ("k2", (45, 359, 45, 1009));
    ("dalu", (75, 310, 16, 1010));
    ("rot", (135, 395, 107, 1011));
    ("c2670", (157, 370, 64, 1012));
    ("c3540", (50, 1000, 22, 1013));
    ("c5315", (178, 810, 123, 1014));
    ("c7552", (207, 1235, 108, 1015));
  ]

let seed_variant name k =
  match List.assoc_opt name random_params with
  | None -> None
  | Some (inputs, gates, outputs, seed) ->
      Some
        (Random_logic.generate
           (Random_logic.default ~name ~inputs ~gates ~outputs ~seed:(seed + k)))
