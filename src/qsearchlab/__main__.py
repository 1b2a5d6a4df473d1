from .cli import run_main

run_main()
