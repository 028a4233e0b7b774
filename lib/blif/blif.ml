exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun s -> raise (Parse_error (line, s))) fmt

(* ------------------------------------------------------------------ *)
(* Reading, in one pass over the text.  The scanner interns each      *)
(* signal name once, as a slice of the text, and records covers in    *)
(* int tables indexed by cover and signal id; {!build} then resolves   *)
(* them from the outputs down through [Logic.Builder].  No token,     *)
(* line or name is copied out of the text unless it names a primary   *)
(* input or output, or an error.                                       *)
(* ------------------------------------------------------------------ *)

(* A growable int array. *)
type ints = { mutable a : int array; mutable n : int }

let ints k = { a = Array.make (max k 8) 0; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let a = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a
  end;
  Array.unsafe_set v.a v.n x;
  v.n <- v.n + 1

let is_space = function ' ' | '\t' | '\r' | '\012' | '\n' -> true | _ -> false

(* A physical line is trimmed of [is_space] bytes after its [#] comment
   is cut; a logical line is its physical lines, each without a trailing
   [\\], joined by spaces.  Tokens are separated by spaces and tabs. *)

(* The text of the logical line that starts at [pos], as error messages
   quote it: each physical line's body followed by one space. *)
let logical_text text pos =
  let n = String.length text in
  let buf = Buffer.create 80 in
  let pos = ref pos and fin = ref false in
  while (not !fin) && !pos <= n do
    let e = ref !pos and cut = ref (-1) in
    while !e < n && text.[!e] <> '\n' do
      if !cut < 0 && text.[!e] = '#' then cut := !e;
      incr e
    done;
    let lo = ref !pos and hi = ref (if !cut >= 0 then !cut else !e) in
    while !lo < !hi && is_space text.[!lo] do incr lo done;
    while !hi > !lo && is_space text.[!hi - 1] do decr hi done;
    if !lo < !hi then begin
      let continued = text.[!hi - 1] = '\\' in
      Buffer.add_string buf
        (String.sub text !lo (!hi - !lo - if continued then 1 else 0));
      Buffer.add_char buf ' ';
      fin := not continued
    end;
    pos := !e + 1
  done;
  Buffer.contents buf

type model = {
  text : string;
  mutable name : string;
  names : Logic.Hashcons.t;  (* a name's key -> its signal id *)
  mutable key : int array;  (* the key being looked up *)
  (* signals, by id: the slice of their first occurrence *)
  s_off : ints;
  s_len : ints;
  s_def : ints;  (* the cover that drives the signal, or -1 *)
  s_input : ints;  (* 1 once declared in [.inputs] *)
  inputs : ints;  (* signal ids, in declaration order *)
  outputs : ints;  (* signal ids, in declaration order *)
  out_line : ints;  (* the [.outputs] line of each *)
  (* covers, by id: cover [c]'s fanins are [fanins.a.(c_fanin.a.(c) ..
     c_fanin.a.(c + 1) - 1)] and its cubes [cubes.a.(c_cube.a.(c) ..
     c_cube.a.(c + 1) - 1)], the last cover's running to the end *)
  c_line : ints;
  c_out : ints;
  c_fanin : ints;
  c_cube : ints;
  fanins : ints;
  cubes : ints;  (* 2 * offset of the input pattern + output bit *)
  (* errors that resolution raises first, once every line has parsed *)
  mutable twice_defined : int;  (* first cover redefining a signal *)
  mutable twice_input : int;  (* first input declared again *)
}

let signal_name m s = String.sub m.text m.s_off.a.(s) m.s_len.a.(s)

(* The key of the name [text.[off .. off+len-1]]: its length, then its
   bytes packed seven to an int.  Returns the key's length. *)
let name_key text off len key =
  let words = 1 + ((len + 6) / 7) in
  key.(0) <- len;
  for w = 1 to words - 1 do
    let first = off + (7 * (w - 1)) in
    let last = if w = words - 1 then off + len - 1 else first + 6 in
    let x = ref 0 in
    for i = first to last do
      x := (!x lsl 8) lor Char.code (String.unsafe_get text i)
    done;
    key.(w) <- !x
  done;
  words

(* The id of the signal named by [text.[off .. off+len-1]]. *)
let intern m off len =
  if Array.length m.key < 2 + (len / 7) then m.key <- Array.make (4 + (len / 3)) 0;
  let words = name_key m.text off len m.key in
  let next = m.s_off.n in
  let s = Logic.Hashcons.find_or_add m.names m.key words next in
  if s = next then begin
    push m.s_off off;
    push m.s_len len;
    push m.s_def (-1);
    push m.s_input 0
  end;
  s

(* One line of a cover takes some 24 bytes or more, so a table sized to
   [len / 24] entries rarely grows. *)
let create_model text =
  let est = (String.length text / 24) + 16 in
  let s_off = ints est and s_len = ints est in
  let key_of s key = name_key text s_off.a.(s) s_len.a.(s) key in
  {
    text;
    name = "model";
    names = Logic.Hashcons.create est ~key_of;
    key = Array.make 8 0;
    s_off;
    s_len;
    s_def = ints est;
    s_input = ints est;
    inputs = ints 16;
    outputs = ints 16;
    out_line = ints 16;
    c_line = ints est;
    c_out = ints est;
    c_fanin = ints est;
    c_cube = ints est;
    fanins = ints (2 * est);
    cubes = ints est;
    twice_defined = -1;
    twice_input = -1;
  }

let tok_is text off len word =
  len = String.length word
  &&
  let j = ref 0 in
  while !j < len && String.unsafe_get text (off + !j) = String.unsafe_get word !j do
    incr j
  done;
  !j = len

(* Parse every line up to [.end] into [m]; syntax errors raise here. *)
let scan m =
  let text = m.text in
  let n = String.length text in
  (* the tokens of the logical line being read *)
  let t_off = ints 16 and t_len = ints 16 in
  let name k = intern m t_off.a.(k) t_len.a.(k) in
  let current = ref (-1) in  (* the open [.names] cover *)
  let line = ref 0 and line_pos = ref 0 in  (* where the logical line starts *)
  (* One logical line; [true] at [.end] or [.exdc], which end the model. *)
  let logical () =
    let ntok = t_off.n in
    if ntok = 0 then false
    else begin
      let off0 = t_off.a.(0) and len0 = t_len.a.(0) in
      if text.[off0] = '.' then begin
        current := -1;
        if tok_is text off0 len0 ".model" then begin
          if ntok > 1 then m.name <- String.sub text t_off.a.(1) t_len.a.(1);
          false
        end
        else if tok_is text off0 len0 ".inputs" then begin
          for k = 1 to ntok - 1 do
            let s = name k in
            if m.s_input.a.(s) = 1 && m.twice_input < 0 then m.twice_input <- s;
            m.s_input.a.(s) <- 1;
            push m.inputs s
          done;
          false
        end
        else if tok_is text off0 len0 ".outputs" then begin
          for k = 1 to ntok - 1 do
            push m.outputs (name k);
            push m.out_line !line
          done;
          false
        end
        else if tok_is text off0 len0 ".names" then begin
          if ntok = 1 then fail !line ".names with no signals";
          let c = m.c_line.n in
          let out = name (ntok - 1) in
          push m.c_line !line;
          push m.c_out out;
          push m.c_fanin m.fanins.n;
          push m.c_cube m.cubes.n;
          for k = 1 to ntok - 2 do
            push m.fanins (name k)
          done;
          if m.s_def.a.(out) < 0 then m.s_def.a.(out) <- c
          else if m.twice_defined < 0 then m.twice_defined <- c;
          current := c;
          false
        end
        else if tok_is text off0 len0 ".end" || tok_is text off0 len0 ".exdc"
        then true
          (* everything after an external don't-care section is ignored *)
        else begin
          List.iter
            (fun d ->
              if tok_is text off0 len0 d then
                fail !line "%s is not supported (combinational BLIF only)" d)
            [ ".latch"; ".subckt"; ".gate"; ".mlatch" ];
          (* Unknown dot-directives are skipped, as SIS emits several. *)
          false
        end
      end
      else begin
        let c = !current in
        if c < 0 then
          fail !line "cube line outside a .names block: %s"
            (logical_text text !line_pos);
        let nin = m.fanins.n - m.c_fanin.a.(c) in
        (* A zero-input cover's cube is its output column alone. *)
        let plen =
          if ntok = 1 && nin = 0 then 0
          else if ntok = 2 then len0
          else fail !line "malformed cube: %s" (logical_text text !line_pos)
        in
        let out = text.[t_off.a.(ntok - 1)] in
        if plen <> nin then
          fail !line "cube width %d does not match %d inputs" plen nin;
        for i = off0 to off0 + plen - 1 do
          match text.[i] with
          | '0' | '1' | '-' -> ()
          | ch -> fail !line "bad cube character %c" ch
        done;
        if out <> '0' && out <> '1' then fail !line "bad output value %c" out;
        push m.cubes ((2 * off0) + if out = '1' then 1 else 0);
        false
      end
    end
  in
  let push_token start len =
    push t_off start;
    push t_len len
  in
  let drop_tokens k =
    t_off.n <- k;
    t_len.n <- k
  in
  let trimmed i = match text.[i] with '\r' | '\012' -> true | _ -> false in
  let pos = ref 0 and lineno = ref 1 and pending = ref false and stop = ref false in
  while (not !stop) && !pos <= n do
    let first = t_off.n in
    (* The line's tokens, up to its '#' or end. *)
    let i = ref !pos and fin = ref false in
    while not !fin do
      while
        !i < n && match String.unsafe_get text !i with ' ' | '\t' -> true | _ -> false
      do
        incr i
      done;
      if !i >= n then fin := true
      else
        match String.unsafe_get text !i with
        | '\n' | '#' -> fin := true
        | _ ->
            let start = !i in
            while
              !i < n
              &&
              match String.unsafe_get text !i with
              | ' ' | '\t' | '\n' | '#' -> false
              | _ -> true
            do
              incr i
            done;
            push_token start (!i - start)
    done;
    let e = ref !i in
    while !e < n && String.unsafe_get text !e <> '\n' do
      incr e
    done;
    let last = t_off.n - 1 in
    if last >= first && (trimmed t_off.a.(first) || trimmed (t_off.a.(last) + t_len.a.(last) - 1))
    then begin
      (* A '\r' or form feed at an end of the line: trim it as a space,
         then split what is left. *)
      drop_tokens first;
      let lo = ref !pos and hi = ref !pos in
      while !hi < !e && text.[!hi] <> '#' do incr hi done;
      while !lo < !hi && is_space text.[!lo] do incr lo done;
      while !hi > !lo && is_space text.[!hi - 1] do decr hi done;
      let j = ref !lo in
      while !j < !hi do
        while !j < !hi && (text.[!j] = ' ' || text.[!j] = '\t') do incr j done;
        let start = !j in
        while !j < !hi && text.[!j] <> ' ' && text.[!j] <> '\t' do incr j done;
        if !j > start then push_token start (!j - start)
      done
    end;
    let last = t_off.n - 1 in
    if last >= first then begin
      (* A line that is not blank; a final '\\' continues it. *)
      if not !pending then begin
        pending := true;
        line := !lineno;
        line_pos := !pos
      end;
      let len = t_len.a.(last) in
      if text.[t_off.a.(last) + len - 1] = '\\' then begin
        let start = t_off.a.(last) in
        drop_tokens last;
        if len > 1 then push_token start (len - 1)
      end
      else begin
        pending := false;
        stop := logical ();
        drop_tokens 0
      end
    end;
    incr lineno;
    pos := !e + 1
  done;
  if !pending && not !stop then ignore (logical ())

(* Resolve the model from its outputs down: covers may appear in any
   order, and a cover no output reaches is never built. *)
let build m =
  if m.twice_defined >= 0 then begin
    let c = m.twice_defined in
    fail m.c_line.a.(c) "signal %s is defined twice" (signal_name m m.c_out.a.(c))
  end;
  if m.twice_input >= 0 then
    fail 0 "input %s declared twice" (signal_name m m.twice_input);
  let b = Logic.Builder.create ~name:m.name ~size:m.c_line.n () in
  let text = m.text in
  let nsig = m.s_off.n in
  let wires = Array.make nsig (-1) in
  let in_progress = Bytes.make nsig '\000' in
  for k = 0 to m.inputs.n - 1 do
    let s = m.inputs.a.(k) in
    wires.(s) <- Logic.Builder.input b (signal_name m s)
  done;
  (* Resolved fanin wires of the covers being built, innermost on top. *)
  let stack = ints 64 in
  let rec resolve lineno s =
    let w = wires.(s) in
    if w >= 0 then w
    else begin
      if Bytes.get in_progress s <> '\000' then
        fail lineno "combinational cycle through %s" (signal_name m s);
      let c = m.s_def.a.(s) in
      if c < 0 then fail lineno "undefined signal %s" (signal_name m s);
      Bytes.set in_progress s '\001';
      let first = m.c_fanin.a.(c) in
      let last = if c + 1 < m.c_fanin.n then m.c_fanin.a.(c + 1) else m.fanins.n in
      let base = stack.n and nin = last - first in
      for k = 0 to nin - 1 do
        let w = resolve m.c_line.a.(c) m.fanins.a.(first + k) in
        push stack w
      done;
      let w = build_cover c base nin in
      stack.n <- base;
      Bytes.set in_progress s '\000';
      wires.(s) <- w;
      w
    end
  (* [nary b ws] over the wires on [stack] from [at] up, which it pops;
     one wire is its own AND or OR, two take the pairwise entry point. *)
  and combine nary pair at =
    let w =
      match stack.n - at with
      | 1 -> stack.a.(at)
      | 2 -> pair b stack.a.(at) stack.a.(at + 1)
      | _ ->
          let ws = ref [] in
          for j = stack.n - 1 downto at do
            ws := stack.a.(j) :: !ws
          done;
          nary b !ws
    in
    stack.n <- at;
    w
  and build_cover c base nin =
    let first = m.c_cube.a.(c) in
    let last = if c + 1 < m.c_cube.n then m.c_cube.a.(c + 1) else m.cubes.n in
    if first = last then Logic.Builder.const b false
    else begin
      let on = m.cubes.a.(first) land 1 in
      for q = first + 1 to last - 1 do
        if m.cubes.a.(q) land 1 <> on then
          fail m.c_line.a.(c) "mixed on-set and off-set cubes for %s"
            (signal_name m m.c_out.a.(c))
      done;
      let complemented = on = 0 in
      (* Each cube's literals in pattern order, then the cube's AND; the
         cube wires wait on [stack] above the fanins for the OR. *)
      let cubes_at = stack.n in
      for q = first to last - 1 do
        let pat = m.cubes.a.(q) lsr 1 in
        let lits_at = stack.n in
        for i = 0 to nin - 1 do
          match String.unsafe_get text (pat + i) with
          | '1' -> push stack stack.a.(base + i)
          | '0' -> push stack (Logic.Builder.not_ b stack.a.(base + i))
          | _ -> ()
        done;
        let conj = combine Logic.Builder.and_ Logic.Builder.and2 lits_at in
        push stack conj
      done;
      let disj = combine Logic.Builder.or_ Logic.Builder.or2 cubes_at in
      if complemented then Logic.Builder.not_ b disj else disj
    end
  in
  let net = Logic.Builder.network b in
  for k = 0 to m.outputs.n - 1 do
    let s = m.outputs.a.(k) in
    let w = resolve m.out_line.a.(k) s in
    Logic.Network.set_output net (signal_name m s) w
  done;
  net

let parse_string text =
  let m = create_model text in
  scan m;
  build m

(* ------------------------------------------------------------------ *)
(* Writing.                                                            *)
(* ------------------------------------------------------------------ *)

let node_names n =
  (* Give every node a unique BLIF signal name, preferring declared names. *)
  let count = Logic.Network.node_count n in
  let names = Array.make count "" in
  let used = Hashtbl.create count in
  let claim id preferred =
    let nm =
      match preferred with
      | Some s when not (Hashtbl.mem used s) -> s
      | _ -> Printf.sprintf "n%d" id
    in
    let nm = if Hashtbl.mem used nm then Printf.sprintf "n%d_" id else nm in
    Hashtbl.replace used nm ();
    names.(id) <- nm
  in
  Logic.Network.iter_nodes
    (fun nd ->
      let preferred =
        match nd.Logic.Network.func with
        | Logic.Network.Input -> Some (Logic.Network.input_name n nd.Logic.Network.id)
        | _ -> nd.Logic.Network.name
      in
      claim nd.Logic.Network.id preferred)
    n;
  names

let to_string n =
  let names = node_names n in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf ".model %s\n" (Logic.Network.name n));
  let ins = Logic.Network.inputs n in
  if Array.length ins > 0 then begin
    Buffer.add_string buf ".inputs";
    Array.iter (fun id -> Buffer.add_string buf (" " ^ names.(id))) ins;
    Buffer.add_char buf '\n'
  end;
  Buffer.add_string buf ".outputs";
  Array.iter (fun (nm, _) -> Buffer.add_string buf (" " ^ nm)) (Logic.Network.outputs n);
  Buffer.add_char buf '\n';
  let emit_names fanin_names out_name cubes =
    Buffer.add_string buf ".names";
    List.iter (fun s -> Buffer.add_string buf (" " ^ s)) fanin_names;
    Buffer.add_string buf (" " ^ out_name ^ "\n");
    List.iter (fun c -> Buffer.add_string buf (c ^ "\n")) cubes
  in
  Logic.Network.iter_nodes
    (fun nd ->
      let id = nd.Logic.Network.id in
      let fanin_names =
        Array.to_list (Array.map (fun f -> names.(f)) nd.Logic.Network.fanins)
      in
      let k = Array.length nd.Logic.Network.fanins in
      match nd.Logic.Network.func with
      | Logic.Network.Input -> ()
      | Logic.Network.Const b ->
          emit_names [] names.(id) (if b then [ "1" ] else [])
      | Logic.Network.Gate g -> (
          let ones = String.make k '1' in
          let one_hot i = String.init k (fun j -> if i = j then '1' else '-') in
          match g with
          | Logic.Gate.And -> emit_names fanin_names names.(id) [ ones ^ " 1" ]
          | Logic.Gate.Nand -> emit_names fanin_names names.(id) [ ones ^ " 0" ]
          | Logic.Gate.Or ->
              emit_names fanin_names names.(id)
                (List.init k (fun i -> one_hot i ^ " 1"))
          | Logic.Gate.Nor ->
              emit_names fanin_names names.(id)
                (List.init k (fun i -> one_hot i ^ " 0"))
          | Logic.Gate.Not -> emit_names fanin_names names.(id) [ "0 1" ]
          | Logic.Gate.Buf -> emit_names fanin_names names.(id) [ "1 1" ]
          | Logic.Gate.Xor | Logic.Gate.Xnor ->
              if k > 16 then
                invalid_arg "Blif.to_string: xor wider than 16 must be decomposed";
              let want_odd = (g = Logic.Gate.Xor) in
              let cubes = ref [] in
              for m = (1 lsl k) - 1 downto 0 do
                let pops = ref 0 in
                for j = 0 to k - 1 do
                  if m land (1 lsl j) <> 0 then incr pops
                done;
                if (!pops mod 2 = 1) = want_odd then begin
                  let cube =
                    String.init k (fun j ->
                        if m land (1 lsl j) <> 0 then '1' else '0')
                    ^ " 1"
                  in
                  cubes := cube :: !cubes
                end
              done;
              emit_names fanin_names names.(id) !cubes))
    n;
  Array.iter
    (fun (nm, id) ->
      if names.(id) <> nm then emit_names [ names.(id) ] nm [ "1 1" ])
    (Logic.Network.outputs n);
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let to_file n path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string n))

let roundtrip_check n =
  let n' = parse_string (to_string n) in
  Logic.Eval.equivalent n n'
