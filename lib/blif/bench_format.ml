exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

let function_of_string line = function
  | "AND" -> Logic.Gate.And
  | "NAND" -> Logic.Gate.Nand
  | "OR" -> Logic.Gate.Or
  | "NOR" -> Logic.Gate.Nor
  | "XOR" -> Logic.Gate.Xor
  | "XNOR" -> Logic.Gate.Xnor
  | "NOT" | "INV" -> Logic.Gate.Not
  | "BUF" | "BUFF" -> Logic.Gate.Buf
  | "DFF" -> fail line "DFF is not supported (combinational only)"
  | f -> fail line "unknown function %s" f

let string_of_gate = function
  | Logic.Gate.And -> "AND"
  | Logic.Gate.Nand -> "NAND"
  | Logic.Gate.Or -> "OR"
  | Logic.Gate.Nor -> "NOR"
  | Logic.Gate.Xor -> "XOR"
  | Logic.Gate.Xnor -> "XNOR"
  | Logic.Gate.Not -> "NOT"
  | Logic.Gate.Buf -> "BUFF"

type stmt =
  | S_input of string
  | S_output of string
  | S_gate of string * Logic.Gate.t * string list

let parse_line lineno line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let line = String.trim line in
  if line = "" then None
  else begin
    let paren_call s =
      match String.index_opt s '(' with
      | Some i when String.length s > 0 && s.[String.length s - 1] = ')' ->
          let head = String.trim (String.sub s 0 i) in
          let args = String.sub s (i + 1) (String.length s - i - 2) in
          let args =
            String.split_on_char ',' args |> List.map String.trim
            |> List.filter (fun a -> a <> "")
          in
          Some (head, args)
      | _ -> None
    in
    match String.index_opt line '=' with
    | None -> (
        match paren_call line with
        | Some (head, [ arg ]) -> (
            match String.uppercase_ascii head with
            | "INPUT" -> Some (S_input arg)
            | "OUTPUT" -> Some (S_output arg)
            | _ -> fail lineno "expected INPUT(..) or OUTPUT(..): %s" line)
        | _ -> fail lineno "unparseable line: %s" line)
    | Some eq -> (
        let target = String.trim (String.sub line 0 eq) in
        let rhs = String.trim (String.sub line (eq + 1) (String.length line - eq - 1)) in
        match paren_call rhs with
        | Some (func, args) when args <> [] ->
            Some (S_gate (target, function_of_string lineno (String.uppercase_ascii func), args))
        | _ -> fail lineno "unparseable gate: %s" line)
  end

let parse_string text =
  let stmts =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> parse_line (i + 1) l)
    |> List.filter_map Fun.id
  in
  let b = Logic.Builder.create ~name:"bench" () in
  let defs = Hashtbl.create 64 in
  List.iter
    (function
      | S_gate (target, g, args) ->
          if Hashtbl.mem defs target then fail 0 "signal %s defined twice" target;
          Hashtbl.replace defs target (g, args)
      | S_input _ | S_output _ -> ())
    stmts;
  let wires = Hashtbl.create 64 in
  List.iter
    (function
      | S_input nm ->
          if Hashtbl.mem wires nm then fail 0 "input %s declared twice" nm;
          Hashtbl.replace wires nm (Logic.Builder.input b nm)
      | S_output _ | S_gate _ -> ())
    stmts;
  let in_progress = Hashtbl.create 16 in
  let rec resolve nm =
    match Hashtbl.find_opt wires nm with
    | Some w -> w
    | None -> (
        if Hashtbl.mem in_progress nm then fail 0 "combinational cycle through %s" nm;
        match Hashtbl.find_opt defs nm with
        | None -> fail 0 "undefined signal %s" nm
        | Some (g, args) ->
            Hashtbl.replace in_progress nm ();
            let fanins = Array.of_list (List.map resolve args) in
            let w =
              Logic.Network.add_gate ~name:nm (Logic.Builder.network b) g fanins
            in
            Hashtbl.remove in_progress nm;
            Hashtbl.replace wires nm w;
            w)
  in
  List.iter
    (function
      | S_output nm -> Logic.Network.set_output (Logic.Builder.network b) nm (resolve nm)
      | S_input _ | S_gate _ -> ())
    stmts;
  Logic.Builder.network b

let to_string n =
  let buf = Buffer.create 4096 in
  let names = Array.make (Logic.Network.node_count n) "" in
  let used = Hashtbl.create 64 in
  Logic.Network.iter_nodes
    (fun nd ->
      let preferred =
        match nd.Logic.Network.func with
        | Logic.Network.Input -> Some (Logic.Network.input_name n nd.Logic.Network.id)
        | _ -> nd.Logic.Network.name
      in
      let nm =
        match preferred with
        | Some s when not (Hashtbl.mem used s) -> s
        | _ -> Printf.sprintf "G%d" nd.Logic.Network.id
      in
      Hashtbl.replace used nm ();
      names.(nd.Logic.Network.id) <- nm)
    n;
  Buffer.add_string buf "# generated by soi_domino\n";
  Array.iter
    (fun id -> Buffer.add_string buf (Printf.sprintf "INPUT(%s)\n" names.(id)))
    (Logic.Network.inputs n);
  Array.iter
    (fun (nm, _) -> Buffer.add_string buf (Printf.sprintf "OUTPUT(%s)\n" nm))
    (Logic.Network.outputs n);
  Logic.Network.iter_nodes
    (fun nd ->
      match nd.Logic.Network.func with
      | Logic.Network.Input -> ()
      | Logic.Network.Const b ->
          (* .bench has no constants; emit XOR/XNOR of an input with itself. *)
          let some_input =
            match Array.to_list (Logic.Network.inputs n) with
            | i :: _ -> names.(i)
            | [] -> "G_const_src"
          in
          Buffer.add_string buf
            (Printf.sprintf "%s = %s(%s, %s)\n" names.(nd.Logic.Network.id)
               (if b then "XNOR" else "XOR")
               some_input some_input)
      | Logic.Network.Gate g ->
          Buffer.add_string buf
            (Printf.sprintf "%s = %s(%s)\n" names.(nd.Logic.Network.id)
               (string_of_gate g)
               (String.concat ", "
                  (Array.to_list (Array.map (fun f -> names.(f)) nd.Logic.Network.fanins)))))
    n;
  (* Outputs whose name differs from the driver get a BUFF alias. *)
  Array.iter
    (fun (nm, id) ->
      if names.(id) <> nm then
        Buffer.add_string buf (Printf.sprintf "%s = BUFF(%s)\n" nm names.(id)))
    (Logic.Network.outputs n);
  Buffer.contents buf

let to_file n path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string n))
