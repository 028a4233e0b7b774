type t = {
  source : string;
  input_names : string array;
  gates : Domino_gate.t array;
  outputs : (string * Pdn.signal) array;
}

type counts = {
  t_logic : int;
  t_disch : int;
  t_total : int;
  t_clock : int;
  gate_count : int;
  levels : int;
  pi_inverters : int;
}

let strip_discharges c =
  {
    c with
    gates =
      Array.map (fun g -> { g with Domino_gate.discharge_points = [] }) c.gates;
  }

let counts c =
  let t_logic = ref 0 and t_disch = ref 0 and t_clock = ref 0 in
  let neg_lits = Hashtbl.create 16 in
  let note_signal = function
    | Pdn.S_pi { input; positive = false } -> Hashtbl.replace neg_lits input ()
    | Pdn.S_pi _ | Pdn.S_gate _ | Pdn.S_const _ -> ()
  in
  (* In place: [Pdn.signals] would build two lists per gate. *)
  let rec note_leaves = function
    | Pdn.Leaf s -> note_signal s
    | Pdn.Series (a, b) | Pdn.Parallel (a, b) -> note_leaves a; note_leaves b
  in
  Array.iter
    (fun g ->
      t_logic := !t_logic + Domino_gate.logic_transistors g;
      t_disch := !t_disch + Domino_gate.discharge_transistors g;
      t_clock := !t_clock + Domino_gate.clock_transistors g;
      note_leaves g.Domino_gate.pdn)
    c.gates;
  Array.iter (fun (_, s) -> note_signal s) c.outputs;
  let levels =
    Array.fold_left
      (fun acc (_, s) ->
        match s with
        | Pdn.S_gate g -> max acc c.gates.(g).Domino_gate.level
        | Pdn.S_pi _ | Pdn.S_const _ -> acc)
      0 c.outputs
  in
  {
    t_logic = !t_logic;
    t_disch = !t_disch;
    t_total = !t_logic + !t_disch;
    t_clock = !t_clock;
    gate_count = Array.length c.gates;
    levels;
    pi_inverters = Hashtbl.length neg_lits;
  }

let validate c =
  let n_gates = Array.length c.gates in
  let n_inputs = Array.length c.input_names in
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
  (* [owner] is the gate id, or [-1] when checking a primary-output
     binding (outputs may reference any gate, and only outputs may be
     tied to a rail). *)
  let check_signal owner = function
    | Pdn.S_gate g ->
        if g < 0 || g >= n_gates then
          if owner >= 0 then fail "gate %d references missing gate %d" owner g
          else fail "output references missing gate %d" g
        else if owner >= 0 && g >= owner then
          fail "gate %d references non-causal gate %d" owner g
    | Pdn.S_pi { input; _ } ->
        if input < 0 || input >= n_inputs then
          fail "gate %d references missing input %d" owner input
    | Pdn.S_const _ ->
        (* Rail ties are a primary-output representation only; a constant
           never gates a transistor inside a PDN. *)
        if owner >= 0 then fail "gate %d has a constant leaf in its PDN" owner
  in
  Array.iteri
    (fun i g ->
      if g.Domino_gate.id <> i then fail "gate at position %d has id %d" i g.Domino_gate.id;
      List.iter (check_signal i) (Pdn.signals g.Domino_gate.pdn);
      (* Discharge paths must address series junctions. *)
      let junctions = Pdn.series_junctions g.Domino_gate.pdn in
      List.iter
        (fun p ->
          if not (List.mem p junctions) then
            fail "gate %d: discharge path does not address a series junction" i)
        g.Domino_gate.discharge_points;
      (* Foot flag must match PDN contents. *)
      if Pdn.has_pi_leaf g.Domino_gate.pdn && not g.Domino_gate.footed then
        fail "gate %d drives primary inputs but has no foot" i;
      (* Level consistency. *)
      let expect =
        1
        + List.fold_left
            (fun acc f -> max acc c.gates.(f).Domino_gate.level)
            0
            (Pdn.gate_fanins g.Domino_gate.pdn)
      in
      if g.Domino_gate.level <> expect then
        fail "gate %d has level %d, expected %d" i g.Domino_gate.level expect)
    c.gates;
  Array.iter (fun (_, s) -> check_signal (-1) s) c.outputs;
  match !error with None -> Ok () | Some e -> Error e

let eval c pi =
  let n_inputs = Array.length c.input_names in
  if Array.length pi <> n_inputs then invalid_arg "Circuit.eval: wrong input count";
  let gate_vals = Array.make (Array.length c.gates) false in
  let env = function
    | Pdn.S_pi { input; positive } -> if positive then pi.(input) else not pi.(input)
    | Pdn.S_gate g -> gate_vals.(g)
    | Pdn.S_const b -> b
  in
  Array.iteri (fun i g -> gate_vals.(i) <- Pdn.eval env g.Domino_gate.pdn) c.gates;
  Array.map (fun (nm, s) -> (nm, env s)) c.outputs

let eval64 c words =
  let n_inputs = Array.length c.input_names in
  if Array.length words <> n_inputs then invalid_arg "Circuit.eval64: wrong input count";
  let gate_vals = Array.make (Array.length c.gates) 0L in
  let env = function
    | Pdn.S_pi { input; positive } ->
        if positive then words.(input) else Int64.lognot words.(input)
    | Pdn.S_gate g -> gate_vals.(g)
    | Pdn.S_const b -> if b then -1L else 0L
  in
  Array.iteri (fun i g -> gate_vals.(i) <- Pdn.eval64 env g.Domino_gate.pdn) c.gates;
  Array.map (fun (nm, s) -> (nm, env s)) c.outputs

let equivalent_to ?(vectors = 4096) ?(seed = 0xD011) c u =
  let n_inputs = Array.length c.input_names in
  if n_inputs <> Array.length (Unate.Unetwork.inputs u) then false
  else begin
    let rounds = (vectors + 63) / 64 in
    let rng = Logic.Rng.create seed in
    let ok = ref true in
    for _ = 1 to rounds do
      if !ok then begin
        let words = Array.init n_inputs (fun _ -> Logic.Rng.next64 rng) in
        let rc = eval64 c words and ru = Unate.Unetwork.eval64 u words in
        let tbl = Hashtbl.create 16 in
        Array.iter (fun (nm, v) -> Hashtbl.replace tbl nm v) ru;
        Array.iter
          (fun (nm, v) ->
            match Hashtbl.find_opt tbl nm with
            | Some v' when v = v' -> ()
            | _ -> ok := false)
          rc
      end
    done;
    !ok
  end

let to_network c =
  let b = Logic.Builder.create ~name:(c.source ^ "_mapped") () in
  let ins = Array.map (fun nm -> Logic.Builder.input b nm) c.input_names in
  let gate_wires = Array.make (Array.length c.gates) (-1) in
  let wire_of_signal = function
    | Pdn.S_pi { input; positive } ->
        if positive then ins.(input) else Logic.Builder.not_ b ins.(input)
    | Pdn.S_gate g -> gate_wires.(g)
    | Pdn.S_const c -> Logic.Builder.const b c
  in
  let rec wire_of_pdn = function
    | Pdn.Leaf s -> wire_of_signal s
    | Pdn.Series (x, y) -> Logic.Builder.and2 b (wire_of_pdn x) (wire_of_pdn y)
    | Pdn.Parallel (x, y) -> Logic.Builder.or2 b (wire_of_pdn x) (wire_of_pdn y)
  in
  Array.iteri (fun i g -> gate_wires.(i) <- wire_of_pdn g.Domino_gate.pdn) c.gates;
  Array.iter
    (fun (nm, s) -> Logic.Network.set_output (Logic.Builder.network b) nm (wire_of_signal s))
    c.outputs;
  Logic.Builder.network b

let equivalent_exact ?limit c source =
  Logic.Equiv.networks_per_output ?limit source (to_network c)

let equivalent_checked ?limit ?vectors ?seed c source =
  Logic.Equiv.networks_per_output_or_sample ?limit ?vectors ?seed source
    (to_network c)

(* The canonical text export behind the golden regression corpus.  The
   format is versioned so that a deliberate change to the dump itself is
   distinguishable from a mapper result shift: bump the version and
   regenerate the corpus when the format changes, never when chasing a
   diff.  Every field is rendered from the circuit alone (counts are
   recomputed), so the dump is independent of how the circuit was
   produced — memoized and cold mappings print identically. *)
let dump_version = 1

let dump c =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let signal_str = function
    | Pdn.S_pi { input; positive } ->
        Printf.sprintf "%sx%d" (if positive then "" else "~") input
    | Pdn.S_gate g -> Printf.sprintf "g%d" g
    | Pdn.S_const b -> if b then "const1" else "const0"
  in
  let path_str p = String.concat "." (List.map string_of_int p) in
  add "soi-domino-dump %d\n" dump_version;
  add "source %s\n" c.source;
  add "inputs %d\n" (Array.length c.input_names);
  Array.iteri (fun i nm -> add "  x%d %s\n" i nm) c.input_names;
  add "gates %d\n" (Array.length c.gates);
  Array.iter
    (fun g ->
      add "  g%d level=%d foot=%d pdn=%s disch=[%s]\n" g.Domino_gate.id
        g.Domino_gate.level
        (if g.Domino_gate.footed then 1 else 0)
        (Pdn.to_string g.Domino_gate.pdn)
        (String.concat ","
           (List.map (fun p -> "<" ^ path_str p ^ ">")
              g.Domino_gate.discharge_points)))
    c.gates;
  add "outputs %d\n" (Array.length c.outputs);
  Array.iter (fun (nm, s) -> add "  %s = %s\n" nm (signal_str s)) c.outputs;
  let k = counts c in
  add
    "counts t_logic=%d t_disch=%d t_total=%d t_clock=%d gates=%d levels=%d \
     pi_inverters=%d\n"
    k.t_logic k.t_disch k.t_total k.t_clock k.gate_count k.levels
    k.pi_inverters;
  Buffer.contents buf

let pp fmt c =
  Format.fprintf fmt "@[<v>domino circuit %s: %d gates@," c.source (Array.length c.gates);
  Array.iter (fun g -> Format.fprintf fmt "  %a@," Domino_gate.pp g) c.gates;
  Array.iter
    (fun (nm, s) ->
      let d =
        match s with
        | Pdn.S_gate g -> Printf.sprintf "g%d" g
        | Pdn.S_pi { input; positive } ->
            Printf.sprintf "%sx%d" (if positive then "" else "~") input
        | Pdn.S_const c -> if c then "1" else "0"
      in
      Format.fprintf fmt "  output %s = %s@," nm d)
    c.outputs;
  Format.fprintf fmt "@]"
