type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ---- printing ---- *)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (Obs.Json.escape s);
      Buffer.add_char buf '"'
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (Obs.Json.escape k);
          Buffer.add_string buf "\":";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ---- parsing (recursive descent over a string) ---- *)

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail "expected %c at offset %d, found %c" c st.pos c'
  | None -> fail "expected %c at offset %d, found end of input" c st.pos

let parse_literal st lit value =
  let n = String.length lit in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = lit
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail "invalid literal at offset %d" st.pos

let parse_string_body st =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail "unterminated string at offset %d" st.pos
    | Some '"' ->
        advance st;
        Buffer.contents buf
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail "unterminated escape at offset %d" st.pos
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if st.pos + 4 > String.length st.src then
                  fail "truncated \\u escape at offset %d" st.pos;
                let hex = String.sub st.src st.pos 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail "bad \\u escape at offset %d" st.pos
                in
                st.pos <- st.pos + 4;
                (* BMP only; journal strings are ASCII in practice *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                end
            | c -> fail "bad escape \\%c at offset %d" c st.pos);
            go ())
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek st with Some c when is_num_char c -> true | _ -> false do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number %S at offset %d" text start)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input at offset %d" st.pos
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
        advance st;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws st;
          expect st '"';
          let key = parse_string_body st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          fields := (key, v) :: !fields;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ()
          | Some '}' -> advance st
          | _ -> fail "expected , or } at offset %d" st.pos
        in
        members ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value st in
          items := v :: !items;
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elements ()
          | Some ']' -> advance st
          | _ -> fail "expected , or ] at offset %d" st.pos
        in
        elements ();
        List (List.rev !items)
      end
  | Some '"' ->
      advance st;
      String (parse_string_body st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail "unexpected character %c at offset %d" c st.pos

let parse s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then
    fail "trailing garbage at offset %d" st.pos;
  v

(* ---- accessors ---- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let get_int name v =
  match member name v with
  | Some (Int i) -> i
  | _ -> fail "missing or non-integer field %S" name

let get_string name v =
  match member name v with
  | Some (String s) -> s
  | _ -> fail "missing or non-string field %S" name

let get_float name v =
  match member name v with
  | Some (Float f) -> f
  | Some (Int i) -> float_of_int i
  | _ -> fail "missing or non-number field %S" name

let get_bool name v =
  match member name v with
  | Some (Bool b) -> b
  | _ -> fail "missing or non-boolean field %S" name

let get_list name v =
  match member name v with
  | Some (List l) -> l
  | _ -> fail "missing or non-array field %S" name

let to_int = function
  | Int i -> i
  | v -> fail "expected integer, found %s" (to_string v)

(* ---- journal files ---- *)

type journal = { complete : string list; torn : string option }

let read_journal path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let n = String.length s in
  let rec split acc start =
    match String.index_from_opt s start '\n' with
    | Some i -> split (String.sub s start (i - start) :: acc) (i + 1)
    | None ->
        let torn = if start >= n then None else Some (String.sub s start (n - start)) in
        { complete = List.rev acc; torn }
  in
  split [] 0

let to_bool = function
  | Bool b -> b
  | v -> fail "expected boolean, found %s" (to_string v)
